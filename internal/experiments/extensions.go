package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"smarteryou/internal/core"
	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
	"smarteryou/internal/stats"
)

// ROCResult is the operating-characteristic extension: the full FRR/FAR
// trade-off curve of the headline configuration and its equal error rate
// and AUC — the metrics the related work of Table I commonly reports.
type ROCResult struct {
	Points []stats.ROCPoint
	EER    float64
	AUC    float64
}

// RunROC collects decision scores of the headline configuration (via the
// standard cross-validated protocol) and sweeps the threshold.
func RunROC(d *Data) (*ROCResult, error) {
	opt := EvalOptions{Devices: DeviceCombination, UseContext: true}.withDefaults()
	det, err := d.Detector(opt.WindowSeconds)
	if err != nil {
		return nil, err
	}
	// The targets run in turn, sharing one rng.
	rng := rand.New(rand.NewSource(d.Cfg.Seed * 77777))
	var legitScores, impostorScores []float64
	for target := 0; target < d.Cfg.Targets; target++ {
		legit, err := d.UserWindows(target, opt.WindowSeconds)
		if err != nil {
			return nil, err
		}
		impostor, err := d.ImpostorWindows(target, opt.WindowSeconds)
		if err != nil {
			return nil, err
		}
		err = crossValidate(det, legit, impostor, d.Cfg.Folds, opt, rng, func(v verdict) {
			if v.legit {
				legitScores = append(legitScores, v.score)
			} else {
				impostorScores = append(impostorScores, v.score)
			}
		})
		if err != nil {
			return nil, err
		}
	}

	points, err := stats.ROC(legitScores, impostorScores)
	if err != nil {
		return nil, fmt.Errorf("roc: %w", err)
	}
	eer, _, err := stats.EER(legitScores, impostorScores)
	if err != nil {
		return nil, fmt.Errorf("roc: %w", err)
	}
	auc, err := stats.AUC(legitScores, impostorScores)
	if err != nil {
		return nil, fmt.Errorf("roc: %w", err)
	}
	return &ROCResult{Points: points, EER: eer, AUC: auc}, nil
}

// Render prints selected operating points plus EER/AUC.
func (r *ROCResult) Render() string {
	var b strings.Builder
	b.WriteString("EXTENSION: ROC of the headline configuration (combination, w/ context)\n\n")
	fmt.Fprintf(&b, "%12s %10s %10s\n", "threshold", "FRR", "FAR")
	// Print ~12 evenly spaced operating points.
	step := len(r.Points) / 12
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(r.Points); i += step {
		p := r.Points[i]
		fmt.Fprintf(&b, "%12.3f %9.1f%% %9.1f%%\n", p.Threshold, p.FRR*100, p.FAR*100)
	}
	fmt.Fprintf(&b, "\nEqual error rate: %.1f%%   (Frank et al. report 4%% EER on touch data)\n", r.EER*100)
	fmt.Fprintf(&b, "AUC:              %.3f\n", r.AUC)
	return b.String()
}

// UnlearningResult is the machine-unlearning extension (Section V-I cites
// Cao & Yang 2015 as the way to update models "asymptotically faster than
// retraining from scratch"): it compares the frozen day-0 model, periodic
// full retraining, and the online adapt+unlearn model over two weeks of
// behavioural drift.
type UnlearningResult struct {
	// Mean confidence score on day-13 behaviour under each strategy.
	FrozenCS   float64
	RetrainCS  float64
	AdaptiveCS float64
	// FRR on day-13 behaviour under each strategy.
	FrozenFRR   float64
	RetrainFRR  float64
	AdaptiveFRR float64
	// RetrainRows is how many rows each periodic full retrain fits from
	// scratch (the last one's count); an adapt is at most two rank-one
	// updates, folding the window in and unlearning the oldest.
	RetrainRows int
}

// RunUnlearning runs the three strategies for the first target user.
func RunUnlearning(d *Data) (*UnlearningResult, error) {
	const horizon = 13.0
	target := 0
	user := d.Pop.Users[target]
	det, err := d.Detector(6)
	if err != nil {
		return nil, err
	}
	impostor, err := d.ImpostorWindows(target, 6)
	if err != nil {
		return nil, err
	}
	collectAt := func(day float64, salt int64) ([]features.WindowSample, error) {
		return recordUsage(sensing.Session{
			User:    user,
			Day:     day,
			Seconds: d.Cfg.SessionSeconds,
			Seed:    d.Cfg.Seed*9_000_011 + salt*131,
		}, 1, 6)
	}

	enroll, err := collectAt(0, 1)
	if err != nil {
		return nil, err
	}
	trainCfg := d.headlineTraining()

	frozenBundle, err := core.Train(enroll, impostor, trainCfg)
	if err != nil {
		return nil, err
	}
	frozen, err := core.NewAuthenticator(det, frozenBundle)
	if err != nil {
		return nil, err
	}
	retrainAuth, err := core.NewAuthenticator(det, frozenBundle)
	if err != nil {
		return nil, err
	}
	// A tight retention window (~3 days of accepted usage) is what makes
	// the slide matter: old behaviour is actually unlearned rather than
	// diluted.
	onlineCfg := trainCfg
	onlineCfg.MaxPerClass = 120
	adaptive, err := core.TrainOnline(det, enroll, impostor, onlineCfg)
	if err != nil {
		return nil, err
	}

	res := &UnlearningResult{}
	for day := 1.0; day < horizon; day++ {
		windows, err := collectAt(day, int64(day)*7)
		if err != nil {
			return nil, err
		}
		// Adaptive: the device stays unlocked (the owner is using it), so
		// every window adapts the model — session-level gating, per the
		// OnlineAuthenticator.Adapt contract.
		for _, w := range windows {
			if err := adaptive.Adapt(w); err != nil {
				return nil, err
			}
		}
		// Periodic full retrain every 4 days with the latest behaviour.
		if int(day)%4 == 0 {
			bundle, err := core.Train(windows, impostor, trainCfg)
			if err != nil {
				return nil, err
			}
			res.RetrainRows = trainRows(windows, impostor, trainCfg.MaxPerClass)
			if err := retrainAuth.SwapBundle(bundle); err != nil {
				return nil, err
			}
		}
	}

	var test []features.WindowSample
	for _, salt := range []int64{997, 1009, 1013} {
		got, err := collectAt(horizon, salt)
		if err != nil {
			return nil, err
		}
		test = append(test, got...)
	}
	evalCS := func(authFn func(features.WindowSample) (core.Decision, error)) (meanCS, frr float64, err error) {
		var sum float64
		rejected := 0
		for _, w := range test {
			d, err := authFn(w)
			if err != nil {
				return 0, 0, err
			}
			sum += d.Score
			if !d.Accepted {
				rejected++
			}
		}
		return sum / float64(len(test)), float64(rejected) / float64(len(test)), nil
	}
	if res.FrozenCS, res.FrozenFRR, err = evalCS(frozen.Authenticate); err != nil {
		return nil, err
	}
	if res.RetrainCS, res.RetrainFRR, err = evalCS(retrainAuth.Authenticate); err != nil {
		return nil, err
	}
	if res.AdaptiveCS, res.AdaptiveFRR, err = evalCS(adaptive.Authenticate); err != nil {
		return nil, err
	}
	return res, nil
}

// trainRows counts the rows core.Train fits in context mode: up to
// maxPerClass windows of each class in every context that has both.
func trainRows(legit, impostor []features.WindowSample, maxPerClass int) int {
	legitBy, impostorBy := features.SplitByCoarseContext(legit), features.SplitByCoarseContext(impostor)
	rows := 0
	for ctx, lg := range legitBy {
		if im := impostorBy[ctx]; len(im) > 0 {
			rows += min(len(lg), maxPerClass) + min(len(im), maxPerClass)
		}
	}
	return rows
}

// Render prints the strategy comparison.
func (r *UnlearningResult) Render() string {
	var b strings.Builder
	b.WriteString("EXTENSION: machine unlearning (Section V-I, via Cao & Yang 2015)\n")
	b.WriteString("Model maintenance strategies over 13 days of behavioural drift,\n")
	b.WriteString("evaluated on day-13 behaviour of the owner:\n\n")
	fmt.Fprintf(&b, "%-34s %10s %8s\n", "strategy", "mean CS", "FRR")
	fmt.Fprintf(&b, "%-34s %10.3f %7.1f%%\n", "frozen day-0 model", r.FrozenCS, r.FrozenFRR*100)
	fmt.Fprintf(&b, "%-34s %10.3f %7.1f%%\n", "full retrain every 4 days", r.RetrainCS, r.RetrainFRR*100)
	fmt.Fprintf(&b, "%-34s %10.3f %7.1f%%\n", "online adapt + unlearn (sliding)", r.AdaptiveCS, r.AdaptiveFRR*100)
	fmt.Fprintf(&b, "\nUpdate cost: retrain fits %d rows, adapt <= 2 rank-one updates per window (time: BenchmarkIncrementalKRRAddRemove)\n",
		r.RetrainRows)
	b.WriteString("Adaptation is gated at session level: an attacker is locked out within\n")
	b.WriteString("~3 windows (Fig. 6), so at most a couple of his windows ever enter the\n")
	b.WriteString("model, and the sliding window ages them out.\n")
	return b.String()
}
