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
	// TargetFRR sets the operating point (default 0.03).
	TargetFRR float64
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
	if o.NewClassifier == nil {
		o.NewClassifier = func() ml.BinaryClassifier { return ml.NewKRR(1) }
	}
	if o.TargetFRR == 0 {
		o.TargetFRR = 0.03
	}
	return o
}

// genericModel is one trained per-context model of the shared evaluation
// pipeline: standardizer, classifier, operating threshold.
type genericModel struct {
	std       *stats.Standardizer
	clf       ml.BinaryClassifier
	threshold float64
}

// genericBundle dispatches windows to per-context generic models, exactly
// mirroring core.Authenticator but over any classifier and device set.
type genericBundle struct {
	opt    EvalOptions
	det    *ctxdetect.Detector
	models map[string]*genericModel
}

// trainGenericBundle fits the per-context (or unified) models on the given
// training windows. Context labels come from the detector, as in the
// paper's enrollment flow.
func trainGenericBundle(det *ctxdetect.Detector, legit, impostor []features.WindowSample, opt EvalOptions, rng *rand.Rand) (*genericBundle, error) {
	b := &genericBundle{opt: opt, det: det, models: make(map[string]*genericModel)}

	groupKey := func(s features.WindowSample) (string, error) {
		if !opt.UseContext {
			return "unified", nil
		}
		detn, err := det.Detect(s.Phone)
		if err != nil {
			return "", err
		}
		return detn.Context.String(), nil
	}
	legitBy := map[string][]features.WindowSample{}
	impostorBy := map[string][]features.WindowSample{}
	for _, s := range legit {
		k, err := groupKey(s)
		if err != nil {
			return nil, err
		}
		legitBy[k] = append(legitBy[k], s)
	}
	for _, s := range impostor {
		k, err := groupKey(s)
		if err != nil {
			return nil, err
		}
		impostorBy[k] = append(impostorBy[k], s)
	}

	// Each group trains from its own seed, derived from one draw on rng, so
	// no group's subsample depends on the order the groups train in.
	seed := rng.Int63()
	for i, key := range core.ModelKeys(core.Mode{UseContext: opt.UseContext}) {
		lg, im := legitBy[key], impostorBy[key]
		if len(lg) == 0 || len(im) == 0 {
			continue
		}
		model, err := trainGenericModel(lg, im, opt, rand.New(rand.NewSource(core.GroupSeed(seed, i))))
		if err != nil {
			return nil, fmt.Errorf("experiments: train %s model: %w", key, err)
		}
		b.models[key] = model
	}
	if len(b.models) == 0 {
		return nil, fmt.Errorf("experiments: no context had data from both classes")
	}
	return b, nil
}

func trainGenericModel(legit, impostor []features.WindowSample, opt EvalOptions, rng *rand.Rand) (*genericModel, error) {
	sub := func(in []features.WindowSample) [][]float64 {
		idx := rng.Perm(len(in))
		if opt.MaxPerClass > 0 && opt.MaxPerClass < len(idx) {
			idx = idx[:opt.MaxPerClass]
		}
		out := make([][]float64, len(idx))
		for i, j := range idx {
			out[i] = opt.vector(in[j])
		}
		return out
	}
	lv, iv := sub(legit), sub(impostor)
	x := append(append([][]float64{}, lv...), iv...)
	y := make([]bool, 0, len(x))
	for range lv {
		y = append(y, true)
	}
	for range iv {
		y = append(y, false)
	}
	std, err := stats.FitStandardizer(x)
	if err != nil {
		return nil, err
	}
	xs := std.TransformAll(x)
	clf := opt.NewClassifier()
	if err := clf.Fit(xs, y); err != nil {
		return nil, err
	}
	var legitScores, impostorScores []float64
	for i, row := range xs {
		s, err := clf.Score(row)
		if err != nil {
			return nil, err
		}
		if y[i] {
			legitScores = append(legitScores, s)
		} else {
			impostorScores = append(impostorScores, s)
		}
	}
	threshold := 0.0
	if !opt.NoCalibration {
		threshold = core.OperatingThreshold(legitScores, impostorScores, opt.TargetFRR)
	}
	return &genericModel{std: std, clf: clf, threshold: threshold}, nil
}

// authenticate classifies one window: detect context, dispatch, score.
func (b *genericBundle) authenticate(s features.WindowSample) (accepted bool, score float64, err error) {
	key := "unified"
	if b.opt.UseContext {
		detn, err := b.det.Detect(s.Phone)
		if err != nil {
			return false, 0, err
		}
		key = detn.Context.String()
	}
	model := b.models[key]
	// Fall back to the first model in key order rather than failing: a
	// context unseen in this training fold still needs a decision.
	for _, k := range core.ModelKeys(core.Mode{UseContext: b.opt.UseContext}) {
		if model == nil {
			model = b.models[k]
		}
	}
	raw, err := model.clf.Score(model.std.Transform(b.opt.vector(s)))
	if err != nil {
		return false, 0, err
	}
	score = raw - model.threshold
	return score > 0, score, nil
}

// EvaluateAuth runs the full protocol: per target user, balance impostor
// windows against the target's, stratified k-fold cross-validate, and
// aggregate FRR/FAR/accuracy across folds and targets. Targets are
// evaluated concurrently; each gets its own deterministic rng, so results
// are reproducible regardless of scheduling.
func (d *Data) EvaluateAuth(opt EvalOptions) (stats.AuthMetrics, error) {
	opt = opt.withDefaults()
	det, err := d.Detector(opt.WindowSeconds)
	if err != nil {
		return stats.AuthMetrics{}, err
	}
	// Window collection is cached per user; warm the caches concurrently
	// once so the per-target evaluations do not serialize on generation.
	if err := d.warmCaches(opt.WindowSeconds); err != nil {
		return stats.AuthMetrics{}, err
	}
	results := make([]stats.AuthMetrics, d.Cfg.Targets)
	err = d.forEachTarget(func(target int) error {
		rng := rand.New(rand.NewSource(d.Cfg.Seed*31337 + int64(target)*999983))
		m, err := d.evaluateTarget(det, target, opt, rng)
		if err != nil {
			return fmt.Errorf("experiments: target %d: %w", target, err)
		}
		results[target] = m
		return nil
	})
	if err != nil {
		return stats.AuthMetrics{}, err
	}
	var agg stats.AuthMetrics
	for _, m := range results {
		agg.Merge(m)
	}
	return agg, nil
}

// forEachTarget runs fn for every target user concurrently (bounded by
// GOMAXPROCS) and returns the first error.
func (d *Data) forEachTarget(fn func(target int) error) error {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	errs := make(chan error, d.Cfg.Targets)
	var wg sync.WaitGroup
	for target := 0; target < d.Cfg.Targets; target++ {
		wg.Add(1)
		go func(target int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := fn(target); err != nil {
				errs <- err
			}
		}(target)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// warmCaches collects every user's windows concurrently (idempotent).
func (d *Data) warmCaches(windowSeconds float64) error {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	errs := make(chan error, d.Cfg.Users)
	var wg sync.WaitGroup
	for i := 0; i < d.Cfg.Users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if _, err := d.UserWindows(i, windowSeconds); err != nil {
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

func (d *Data) evaluateTarget(det *ctxdetect.Detector, target int, opt EvalOptions, rng *rand.Rand) (stats.AuthMetrics, error) {
	legit, err := d.UserWindows(target, opt.WindowSeconds)
	if err != nil {
		return stats.AuthMetrics{}, err
	}
	impostorAll, err := d.ImpostorWindows(target, opt.WindowSeconds)
	if err != nil {
		return stats.AuthMetrics{}, err
	}
	// Balance: as many impostor windows as legitimate ones, drawn evenly
	// across the population.
	impostor := sampleWindows(impostorAll, len(legit), rng)

	all := append(append([]features.WindowSample{}, legit...), impostor...)
	labels := make([]bool, len(all))
	for i := range legit {
		labels[i] = true
	}
	folds, err := stats.StratifiedKFold(labels, d.Cfg.Folds, rng)
	if err != nil {
		return stats.AuthMetrics{}, err
	}
	var agg stats.AuthMetrics
	for _, fold := range folds {
		var trLegit, trImpostor []features.WindowSample
		for _, i := range fold.TrainIdx {
			if labels[i] {
				trLegit = append(trLegit, all[i])
			} else {
				trImpostor = append(trImpostor, all[i])
			}
		}
		bundle, err := trainGenericBundle(det, trLegit, trImpostor, opt, rng)
		if err != nil {
			return stats.AuthMetrics{}, err
		}
		for _, i := range fold.TestIdx {
			accepted, _, err := bundle.authenticate(all[i])
			if err != nil {
				return stats.AuthMetrics{}, err
			}
			agg.Observe(labels[i], accepted)
		}
	}
	return agg, nil
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

// EvaluateAuthByContext runs the protocol separately for windows of each
// coarse context — the per-context panels of Figs. 4 and 5.
func (d *Data) EvaluateAuthByContext(opt EvalOptions) (map[sensing.CoarseContext]stats.AuthMetrics, error) {
	opt = opt.withDefaults()
	det, err := d.Detector(opt.WindowSeconds)
	if err != nil {
		return nil, err
	}
	if err := d.warmCaches(opt.WindowSeconds); err != nil {
		return nil, err
	}
	perTarget := make([]map[sensing.CoarseContext]*stats.AuthMetrics, d.Cfg.Targets)
	err = d.forEachTarget(func(target int) error {
		rng := rand.New(rand.NewSource(d.Cfg.Seed*60013 + int64(target)*999983))
		out := map[sensing.CoarseContext]*stats.AuthMetrics{
			sensing.CoarseStationary: {},
			sensing.CoarseMoving:     {},
		}
		if err := d.evaluateTargetByContext(det, target, opt, rng, out); err != nil {
			return fmt.Errorf("experiments: target %d: %w", target, err)
		}
		perTarget[target] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	final := make(map[sensing.CoarseContext]stats.AuthMetrics, 2)
	for _, out := range perTarget {
		for ctx, m := range out {
			agg := final[ctx]
			agg.Merge(*m)
			final[ctx] = agg
		}
	}
	return final, nil
}

func (d *Data) evaluateTargetByContext(det *ctxdetect.Detector, target int, opt EvalOptions, rng *rand.Rand, out map[sensing.CoarseContext]*stats.AuthMetrics) error {
	legit, err := d.UserWindows(target, opt.WindowSeconds)
	if err != nil {
		return err
	}
	impostorAll, err := d.ImpostorWindows(target, opt.WindowSeconds)
	if err != nil {
		return err
	}
	impostor := sampleWindows(impostorAll, len(legit), rng)
	all := append(append([]features.WindowSample{}, legit...), impostor...)
	labels := make([]bool, len(all))
	for i := range legit {
		labels[i] = true
	}
	folds, err := stats.StratifiedKFold(labels, d.Cfg.Folds, rng)
	if err != nil {
		return err
	}
	// Per-context reporting always trains per-context models: the panels
	// of Fig. 4 and Fig. 5 are produced under the context-aware system.
	ctxOpt := opt
	ctxOpt.UseContext = true
	for _, fold := range folds {
		var trLegit, trImpostor []features.WindowSample
		for _, i := range fold.TrainIdx {
			if labels[i] {
				trLegit = append(trLegit, all[i])
			} else {
				trImpostor = append(trImpostor, all[i])
			}
		}
		bundle, err := trainGenericBundle(det, trLegit, trImpostor, ctxOpt, rng)
		if err != nil {
			return err
		}
		for _, i := range fold.TestIdx {
			accepted, _, err := bundle.authenticate(all[i])
			if err != nil {
				return err
			}
			out[all[i].Context.Coarse()].Observe(labels[i], accepted)
		}
	}
	return nil
}
