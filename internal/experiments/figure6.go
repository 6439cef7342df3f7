package experiments

import (
	"fmt"
	"strings"

	"smarteryou/internal/attack"
	"smarteryou/internal/core"
	"smarteryou/internal/sensing"
)

// Figure6Result reproduces Fig. 6: the fraction of masquerading
// adversaries still holding access to the victim's smartphone at time t.
type Figure6Result struct {
	Times     []float64
	Fractions []float64
	// DetectedBy6s / DetectedBy18s summarize the paper's claims (90% of
	// adversaries caught within 6 s; all within 18 s).
	DetectedBy6s  float64
	DetectedBy18s float64
	MeanSeconds   float64
	Trials        int
}

// RunFigure6 trains the headline configuration for each target victim and
// runs the mimicry campaign of Section V-G against it.
func RunFigure6(d *Data) (*Figure6Result, error) {
	det, err := d.Detector(6)
	if err != nil {
		return nil, err
	}
	agg := attack.Result{Horizon: 60, Window: 6}
	for target := 0; target < d.Cfg.Targets; target++ {
		legit, err := d.UserWindows(target, 6)
		if err != nil {
			return nil, err
		}
		impostor, err := d.ImpostorWindows(target, 6)
		if err != nil {
			return nil, err
		}
		bundle, err := core.Train(legit, impostor, d.headlineTraining())
		if err != nil {
			return nil, fmt.Errorf("figure6: train victim %d: %w", target, err)
		}
		auth, err := core.NewAuthenticator(det, bundle)
		if err != nil {
			return nil, fmt.Errorf("figure6: %w", err)
		}

		// Everyone else plays the adversary, a few trials each (the paper
		// repeats each attack 20 times; trials are split across attackers
		// to keep the campaign size comparable).
		var attackers []*sensing.User
		for i, u := range d.Pop.Users {
			if i != target {
				attackers = append(attackers, u)
			}
		}
		trials := 20 / len(attackers)
		if trials < 1 {
			trials = 1
		}
		res, err := attack.Run(auth, attack.Scenario{
			Victim:         d.Pop.Users[target],
			Attackers:      attackers,
			Fidelity:       0.9,
			HorizonSeconds: 60,
			WindowSeconds:  6,
			Trials:         trials,
			Seed:           d.Cfg.Seed * int64(target+13),
		})
		if err != nil {
			return nil, fmt.Errorf("figure6: attack on %d: %w", target, err)
		}
		agg.SurvivalTimes = append(agg.SurvivalTimes, res.SurvivalTimes...)
	}

	times, fractions := agg.SurvivalCurve()
	return &Figure6Result{
		Times:         times,
		Fractions:     fractions,
		DetectedBy6s:  agg.FractionDetectedBy(6),
		DetectedBy18s: agg.FractionDetectedBy(18),
		MeanSeconds:   agg.MeanDetectionSeconds(),
		Trials:        len(agg.SurvivalTimes),
	}, nil
}

// Render prints the survival curve of Fig. 6.
func (r *Figure6Result) Render() string {
	var b strings.Builder
	b.WriteString("FIGURE 6: fraction of adversaries with access at time t (masquerading attack)\n\n")
	fmt.Fprintf(&b, "%-10s %s\n", "t (s)", "fraction with access")
	for i, t := range r.Times {
		fmt.Fprintf(&b, "%-10.0f %6.1f%%  %s\n", t, r.Fractions[i]*100, bar(int(r.Fractions[i]*40)))
	}
	b.WriteString("\nsurvival curve (%):\n")
	b.WriteString(asciiPlot(r.Times, []plotSeries{
		{Name: "fraction with access", Marker: '*', Y: scale100(r.Fractions)},
	}, 56, 8, "%6.1f"))
	fmt.Fprintf(&b, "\nDetected within  6 s: %5.1f%%   (paper: ~90%%)\n", r.DetectedBy6s*100)
	fmt.Fprintf(&b, "Detected within 18 s: %5.1f%%   (paper: 100%%)\n", r.DetectedBy18s*100)
	fmt.Fprintf(&b, "Mean detection time:  %5.1f s over %d attack trials\n", r.MeanSeconds, r.Trials)
	return b.String()
}
