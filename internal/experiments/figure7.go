package experiments

import (
	"fmt"
	"strings"
	"time"

	"smarteryou/internal/core"
	"smarteryou/internal/features"
	"smarteryou/internal/retrain"
	"smarteryou/internal/sensing"
)

// Figure7Point is the mean confidence score of the legitimate user at one
// point in simulated time.
type Figure7Point struct {
	Day       float64
	MeanCS    float64
	Retrained bool // a retrain completed at this step
}

// Figure7Result reproduces Fig. 7: the confidence score CS(k) = x_k^T w*
// of a user over ~12 days of behavioural drift, the sustained drop below
// epsilon_CS = 0.2 near the end of the first week, the automatic retrain,
// and the recovery afterwards. It also reports the attacker's mean
// confidence score, which stays negative (so an attacker cannot trigger
// retraining, Section V-I).
type Figure7Result struct {
	Points         []Figure7Point
	Threshold      float64
	RetrainDay     float64 // -1 if retraining never triggered
	AttackerMeanCS float64
}

// RunFigure7 trains at enrollment (day 0), replays daily usage through the
// production core.Authenticator and the drift monitor the Authentication
// Server runs (retrain.Monitor at its default smoothing and warm-up), and
// retrains with the user's recent windows when the monitor emits a
// candidate. Like the paper's Fig. 7 it shows one representative user:
// drift magnitude is user-specific, so the first of the target users whose
// drift trips the monitor within the horizon is plotted (falling back to
// the first target).
func RunFigure7(d *Data) (*Figure7Result, error) {
	var fallback *Figure7Result
	limit := d.Cfg.Targets
	if limit > 3 {
		limit = 3
	}
	for target := 0; target < limit; target++ {
		res, err := d.runFigure7Target(target)
		if err != nil {
			return nil, err
		}
		if res.RetrainDay >= 0 {
			return res, nil
		}
		if fallback == nil {
			fallback = res
		}
	}
	return fallback, nil
}

func (d *Data) runFigure7Target(target int) (*Figure7Result, error) {
	const (
		horizonDays = 12.0
		stepDays    = 0.5
		threshold   = 0.2
	)
	det, err := d.Detector(6)
	if err != nil {
		return nil, err
	}
	user := d.Pop.Users[target]
	impostorPool, err := d.ImpostorWindows(target, 6)
	if err != nil {
		return nil, err
	}

	// Enrollment data: sessions recorded at day 0, before any drift.
	enroll, err := collectAtDay(user, d.Cfg, target, 0)
	if err != nil {
		return nil, err
	}
	trainCfg := d.headlineTraining()
	bundle, err := core.Train(enroll, impostorPool, trainCfg)
	if err != nil {
		return nil, fmt.Errorf("figure7: enrollment training: %w", err)
	}
	auth, err := core.NewAuthenticator(det, bundle)
	if err != nil {
		return nil, err
	}
	monitor := retrain.NewMonitor(retrain.Config{Threshold: threshold})

	res := &Figure7Result{Threshold: threshold, RetrainDay: -1}
	for day := 0.0; day <= horizonDays; day += stepDays {
		now := time.Unix(0, 0).Add(time.Duration(day * 24 * float64(time.Hour)))
		windows, err := collectAtDay(user, d.Cfg, target, day)
		if err != nil {
			return nil, err
		}
		var sum float64
		var count int
		retrained := false
		for _, w := range windows {
			decision, err := auth.Authenticate(w)
			if err != nil {
				return nil, err
			}
			sum += decision.Score
			count++
			if _, drifted := monitor.Observe(user.ID, decision.Score, decision.Accepted, now); drifted {
				// Sustained low confidence: upload the latest behaviour
				// and install freshly trained models (Section V-I).
				newBundle, err := core.Train(windows, impostorPool, trainCfg)
				if err != nil {
					return nil, fmt.Errorf("figure7: retrain at day %.1f: %w", day, err)
				}
				if err := auth.SwapBundle(newBundle); err != nil {
					return nil, err
				}
				monitor.MarkTrained(user.ID, now)
				retrained = true
				if res.RetrainDay < 0 {
					res.RetrainDay = day
				}
			}
		}
		if count > 0 {
			res.Points = append(res.Points, Figure7Point{
				Day:       day,
				MeanCS:    sum / float64(count),
				Retrained: retrained,
			})
		}
	}

	// The attackers' confidence score under the victim's current models,
	// averaged over several mimics (any single attacker's score depends on
	// how behaviourally close he happens to be to the victim).
	var atkSum float64
	var atkCount int
	for ai := 1; ai <= 5 && ai < d.Cfg.Users; ai++ {
		attacker := d.Pop.Users[(target+ai)%d.Cfg.Users]
		attackWindows, err := features.Record(sensing.Session{
			User:          attacker,
			Context:       sensing.ContextMovingUse,
			Seconds:       d.Cfg.SessionSeconds,
			Seed:          d.Cfg.Seed*424243 + int64(ai),
			MimicOf:       &user.Params,
			MimicFidelity: 0.9,
		}, 6)
		if err != nil {
			return nil, err
		}
		for _, w := range attackWindows {
			decision, err := auth.Authenticate(w)
			if err != nil {
				return nil, err
			}
			atkSum += decision.Score
			atkCount++
		}
	}
	if atkCount > 0 {
		res.AttackerMeanCS = atkSum / float64(atkCount)
	}
	return res, nil
}

// collectAtDay records several sessions per coarse context at the given
// drift day; multiple sessions average out session-level environment
// variance so the confidence-score trajectory reflects drift, not one
// session's circumstances.
func collectAtDay(u *sensing.User, cfg Config, userIdx int, day float64) ([]features.WindowSample, error) {
	var out []features.WindowSample
	for si := 0; si < 3; si++ {
		got, err := recordUsage(sensing.Session{
			User:    u,
			Day:     day,
			Seconds: cfg.SessionSeconds / 2,
			Seed:    cfg.Seed*5_000_011 + int64(userIdx)*7001 + int64(day*100)*31 + int64(si)*101,
		}, 1, 6)
		if err != nil {
			return nil, err
		}
		out = append(out, got...)
	}
	return out, nil
}

// Render prints the confidence-score trajectory of Fig. 7.
func (r *Figure7Result) Render() string {
	var b strings.Builder
	b.WriteString("FIGURE 7: confidence score of a user over time (behavioural drift + retraining)\n\n")
	fmt.Fprintf(&b, "threshold epsilon_CS = %.1f\n", r.Threshold)
	fmt.Fprintf(&b, "%-8s %10s\n", "day", "mean CS")
	for _, p := range r.Points {
		marker := ""
		if p.Retrained {
			marker = "  <-- retrained"
		}
		below := ""
		if p.MeanCS < r.Threshold {
			below = " (below threshold)"
		}
		fmt.Fprintf(&b, "%-8.1f %10.3f%s%s\n", p.Day, p.MeanCS, below, marker)
	}
	days := make([]float64, len(r.Points))
	cs := make([]float64, len(r.Points))
	for i, p := range r.Points {
		days[i] = p.Day
		cs[i] = p.MeanCS
	}
	b.WriteString("\nconfidence score over time:\n")
	b.WriteString(asciiPlot(days, []plotSeries{
		{Name: "mean CS", Marker: '*', Y: cs},
		{Name: "threshold", Marker: '-', Y: repeatVal(r.Threshold, len(days))},
	}, 56, 10, "%6.2f"))
	if r.RetrainDay >= 0 {
		fmt.Fprintf(&b, "\nRetraining triggered at day %.1f (paper: around the end of week 1)\n", r.RetrainDay)
	} else {
		b.WriteString("\nRetraining never triggered within the horizon\n")
	}
	fmt.Fprintf(&b, "Attacker mean CS: %.3f (paper: negative, cannot trigger retraining)\n", r.AttackerMeanCS)
	return b.String()
}
