package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/ml"
	"smarteryou/internal/sensing"
	"smarteryou/internal/stats"
)

// DeviceSet selects which devices contribute features — the three series
// of Figs. 4 and 5.
type DeviceSet int

// Device sets.
const (
	DevicePhoneOnly DeviceSet = iota + 1
	DeviceWatchOnly
	DeviceCombination
)

// String implements fmt.Stringer.
func (s DeviceSet) String() string {
	switch s {
	case DevicePhoneOnly:
		return "smartphone"
	case DeviceWatchOnly:
		return "smartwatch"
	case DeviceCombination:
		return "combination"
	default:
		return fmt.Sprintf("DeviceSet(%d)", int(s))
	}
}

// vector extracts the device set's feature vector from a window sample.
func (s DeviceSet) vector(w features.WindowSample) []float64 {
	switch s {
	case DeviceWatchOnly:
		return w.WatchVector()
	case DeviceCombination:
		return w.Vector(true)
	default:
		return w.Vector(false)
	}
}

// EvalOptions parameterize one authentication evaluation — the protocol of
// Section V-A (10-fold cross-validation over balanced legitimate/impostor
// windows, averaged over target users).
type EvalOptions struct {
	// Devices selects the feature sources (default combination).
	Devices DeviceSet
	// UseContext trains per-context models dispatched by the detector
	// (default false; set explicitly).
	UseContext bool
	// WindowSeconds is the feature window (default 6).
	WindowSeconds float64
	// MaxPerClass caps training windows per class per fold (default 400:
	// the paper's converged N=800 total).
	MaxPerClass int
	// NewClassifier constructs the classifier under test; nil uses the
	// paper's KRR with rho=1.
	NewClassifier func() ml.BinaryClassifier
	// Extract overrides the feature vector extraction (used by the
	// sensor- and feature-set ablations); nil uses Devices.
	Extract func(features.WindowSample) []float64
	// NoCalibration disables the operating-point threshold and uses the
	// classifier's textbook decision rule (score > 0). Table VI applies
	// this to the weak baselines, matching how the paper's comparison
	// points are conventionally run.
	NoCalibration bool
}

// vector applies the option's feature extraction to one window sample.
func (o EvalOptions) vector(s features.WindowSample) []float64 {
	if o.Extract != nil {
		return o.Extract(s)
	}
	return o.Devices.vector(s)
}

func (o EvalOptions) withDefaults() EvalOptions {
	if o.Devices == 0 {
		o.Devices = DeviceCombination
	}
	if o.WindowSeconds == 0 {
		o.WindowSeconds = 6
	}
	if o.MaxPerClass == 0 {
		o.MaxPerClass = 400
	}
	return o
}

// headlineTraining is the served configuration — both devices,
// per-context models, N = 800 — that Figs. 6 and 7 and the unlearning
// extension train with core.Train.
func (d *Data) headlineTraining() core.TrainConfig {
	return core.TrainConfig{
		Mode:        core.Mode{Combined: true, UseContext: true},
		MaxPerClass: 400,
		Seed:        d.Cfg.Seed,
	}
}

// authenticateFunc decides one held-out window.
type authenticateFunc func(features.WindowSample) (accepted bool, score float64, err error)

// train fits one fold's models on windows labelled by the detector and
// returns the decision rule for its held-out windows. The paper's KRR over
// the phone or combination vector is core.Train scored by
// core.Authenticator, the models and dispatch the server serves. Any other
// classifier, extractor or device set runs the same pipeline through
// core.Fit.
func (o EvalOptions) train(det *ctxdetect.Detector, legit, impostor []features.WindowSample, seed int64) (authenticateFunc, error) {
	cfg := core.TrainConfig{
		Mode:        core.Mode{Combined: o.Devices == DeviceCombination, UseContext: o.UseContext},
		MaxPerClass: o.MaxPerClass,
		Seed:        seed,
	}
	if o.NewClassifier == nil && o.Extract == nil && o.Devices != DeviceWatchOnly && !o.NoCalibration {
		bundle, err := core.Train(legit, impostor, cfg)
		if err != nil {
			return nil, err
		}
		core.CompleteModels(bundle.Models, cfg.Mode)
		auth, err := core.NewAuthenticator(det, bundle)
		if err != nil {
			return nil, err
		}
		return func(s features.WindowSample) (bool, float64, error) {
			d, err := auth.Authenticate(s)
			return d.Accepted, d.Score, err
		}, nil
	}

	newClassifier := o.NewClassifier
	if newClassifier == nil {
		newClassifier = func() ml.BinaryClassifier { return ml.NewKRR(1) }
	}
	models, err := core.Fit(legit, impostor, cfg,
		func(dst []float64, s features.WindowSample) []float64 { return append(dst, o.vector(s)...) },
		newClassifier)
	if err != nil {
		return nil, err
	}
	core.CompleteModels(models, cfg.Mode)
	return func(s features.WindowSample) (bool, float64, error) {
		key := core.ModelKeys(cfg.Mode)[0] // the unified model without context
		if o.UseContext {
			detn, err := det.Detect(s.Phone)
			if err != nil {
				return false, 0, err
			}
			key = detn.Context.String()
		}
		m := models[key]
		if o.NoCalibration {
			m.Threshold = 0
		}
		score, err := m.Score(o.vector(s), nil)
		return score > 0, score, err
	}, nil
}

// verdict is the decision on one held-out window of a cross-validation
// fold.
type verdict struct {
	sample   features.WindowSample
	legit    bool // the window is the target's own
	accepted bool
	score    float64
}

// crossValidate runs the protocol of Section V-A for one target user: it
// draws as many impostor windows from the pool as the target has, splits
// the balanced set into stratified folds, and for each fold trains on the
// other folds and passes observe the verdict on every held-out window.
// Every cross-validated figure of the harness comes from here.
func crossValidate(det *ctxdetect.Detector, legit, impostorPool []features.WindowSample, folds int, opt EvalOptions, rng *rand.Rand, observe func(verdict)) error {
	impostor := sampleWindows(impostorPool, len(legit), rng)
	all := append(append([]features.WindowSample{}, legit...), impostor...)
	labels := make([]bool, len(all))
	for i := range legit {
		labels[i] = true
	}
	split, err := stats.StratifiedKFold(labels, folds, rng)
	if err != nil {
		return err
	}
	// Training windows carry the detector's verdict, as the paper's
	// enrollment flow labels them; held-out windows keep their recorded
	// context, by which the per-context figures report.
	train := all
	if opt.UseContext {
		if train, err = det.Label(all); err != nil {
			return err
		}
	}
	for _, fold := range split {
		var trLegit, trImpostor []features.WindowSample
		for _, i := range fold.TrainIdx {
			if labels[i] {
				trLegit = append(trLegit, train[i])
			} else {
				trImpostor = append(trImpostor, train[i])
			}
		}
		authenticate, err := opt.train(det, trLegit, trImpostor, rng.Int63())
		if err != nil {
			return err
		}
		for _, i := range fold.TestIdx {
			accepted, score, err := authenticate(all[i])
			if err != nil {
				return err
			}
			observe(verdict{sample: all[i], legit: labels[i], accepted: accepted, score: score})
		}
	}
	return nil
}

// sampleWindows draws n windows without replacement (all of them when
// n >= len(in)).
func sampleWindows(in []features.WindowSample, n int, rng *rand.Rand) []features.WindowSample {
	idx := rng.Perm(len(in))
	if n < len(idx) {
		idx = idx[:n]
	}
	out := make([]features.WindowSample, len(idx))
	for i, j := range idx {
		out[i] = in[j]
	}
	return out
}

// crossValidateTargets cross-validates every target user against the rest
// of the population. Targets run concurrently, each on its own rng seeded
// from seedScale and the target index, so results do not depend on
// scheduling; observe is called from one goroutine per target.
func (d *Data) crossValidateTargets(opt EvalOptions, seedScale int64, observe func(target int, v verdict)) error {
	det, err := d.Detector(opt.WindowSeconds)
	if err != nil {
		return err
	}
	// Window collection is cached per user; warm the caches concurrently
	// once so the per-target evaluations do not serialize on generation.
	err = parallel(d.Cfg.Users, func(user int) error {
		_, err := d.UserWindows(user, opt.WindowSeconds)
		return err
	})
	if err != nil {
		return err
	}
	return parallel(d.Cfg.Targets, func(target int) error {
		rng := rand.New(rand.NewSource(d.Cfg.Seed*seedScale + int64(target)*999983))
		legit, err := d.UserWindows(target, opt.WindowSeconds)
		if err != nil {
			return err
		}
		impostor, err := d.ImpostorWindows(target, opt.WindowSeconds)
		if err != nil {
			return err
		}
		err = crossValidate(det, legit, impostor, d.Cfg.Folds, opt, rng, func(v verdict) { observe(target, v) })
		if err != nil {
			return fmt.Errorf("experiments: target %d: %w", target, err)
		}
		return nil
	})
}

// parallel runs fn for 0..n-1 concurrently (at most GOMAXPROCS at a time)
// and returns the first error.
func parallel(n int, fn func(i int) error) error {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := fn(i); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// EvaluateAuth runs the full protocol and aggregates FRR/FAR/accuracy
// across folds and targets.
func (d *Data) EvaluateAuth(opt EvalOptions) (stats.AuthMetrics, error) {
	perTarget := make([]stats.AuthMetrics, d.Cfg.Targets)
	err := d.crossValidateTargets(opt.withDefaults(), 31337, func(target int, v verdict) {
		perTarget[target].Observe(v.legit, v.accepted)
	})
	if err != nil {
		return stats.AuthMetrics{}, err
	}
	var agg stats.AuthMetrics
	for _, m := range perTarget {
		agg.Merge(m)
	}
	return agg, nil
}

// EvaluateAuthByContext runs the protocol and reports the test windows of
// each coarse context separately — the per-context panels of Fig. 4.
func (d *Data) EvaluateAuthByContext(opt EvalOptions) (map[sensing.CoarseContext]stats.AuthMetrics, error) {
	opt = opt.withDefaults()
	// Per-context reporting always trains per-context models: the panels
	// of Fig. 4 and Fig. 5 are produced under the context-aware system.
	opt.UseContext = true
	perTarget := make([]map[sensing.CoarseContext]*stats.AuthMetrics, d.Cfg.Targets)
	for target := range perTarget {
		perTarget[target] = map[sensing.CoarseContext]*stats.AuthMetrics{
			sensing.CoarseStationary: {},
			sensing.CoarseMoving:     {},
		}
	}
	err := d.crossValidateTargets(opt, 60013, func(target int, v verdict) {
		perTarget[target][v.sample.Context.Coarse()].Observe(v.legit, v.accepted)
	})
	if err != nil {
		return nil, err
	}
	final := make(map[sensing.CoarseContext]stats.AuthMetrics, 2)
	for _, byCtx := range perTarget {
		for ctx, m := range byCtx {
			agg := final[ctx]
			agg.Merge(*m)
			final[ctx] = agg
		}
	}
	return final, nil
}
