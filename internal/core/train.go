package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"smarteryou/internal/features"
	"smarteryou/internal/ml"
	"smarteryou/internal/sensing"
	"smarteryou/internal/stats"
)

// TrainConfig parameterizes the cloud training module.
type TrainConfig struct {
	// Mode is the device/context configuration to train for.
	Mode Mode
	// Rho is the KRR ridge strength (default 1).
	Rho float64
	// MaxPerClass caps how many legitimate and impostor windows each
	// model trains on — the paper's "data size" knob (N = 800 total, i.e.
	// 400 per class, is the paper's optimum). 0 uses everything.
	MaxPerClass int
	// TargetFRR sets the operating point: the decision threshold is the
	// TargetFRR quantile of the legitimate user's training scores, so
	// roughly that fraction of the owner's windows is rejected. The
	// default 0.03 mirrors the paper's operating point (FRR 0.9%, FAR 2.8%
	// measured on test data).
	TargetFRR float64
	// Seed drives impostor subsampling.
	Seed int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Rho == 0 {
		c.Rho = 1
	}
	if c.TargetFRR == 0 {
		c.TargetFRR = 0.03
	}
	return c
}

// Train is the training module of Section IV-A3: it fits the per-context
// (or unified) authentication models from the legitimate user's feature
// windows and the anonymized population's windows. It is Fit with the
// paper's KRR over the mode's feature vector, and TrainPopulation with
// the population in one segment.
func Train(legit, impostor []features.WindowSample, cfg TrainConfig) (*ModelBundle, error) {
	return TrainPopulation(legit, [][]features.WindowSample{impostor}, cfg)
}

// TrainPopulation is Train with the impostor windows held in place: they
// are the windows of the segments laid end to end, in order (a
// population's per-user slices), and no window is copied. The bundle is
// the one Train builds on the segments' concatenation.
func TrainPopulation(legit []features.WindowSample, impostor [][]features.WindowSample, cfg TrainConfig) (*ModelBundle, error) {
	cfg = cfg.withDefaults()
	scorers, err := fit(legit, impostor, cfg,
		func(dst []float64, s features.WindowSample) []float64 { return s.AppendVector(dst, cfg.Mode.Combined) },
		func() *ml.KRR { return ml.NewKRR(cfg.Rho) })
	if err != nil {
		return nil, err
	}
	bundle := &ModelBundle{Mode: cfg.Mode, Models: make(map[string]*ContextModel, len(scorers))}
	for key, s := range scorers {
		bundle.Models[key] = &ContextModel{Std: s.Std, KRR: s.Clf, Threshold: s.Threshold}
	}
	return bundle, nil
}

// Scorer is one model as Fit trains it: the standardizer fitted on its
// training rows, the classifier, and the operating threshold.
type Scorer[C ml.BinaryClassifier] struct {
	Std       *stats.Standardizer
	Clf       C
	Threshold float64
}

// Score runs the model on a raw (unstandardized) feature vector: the
// classifier's decision value less the threshold, positive accepting.
// The standardized vector is written into scratch, which may be vector
// itself; a scratch shorter than vector is replaced by a new slice.
func (s Scorer[C]) Score(vector, scratch []float64) (float64, error) {
	raw, err := s.Clf.Score(standardize(s.Std, vector, scratch))
	if err != nil {
		return 0, err
	}
	return raw - s.Threshold, nil
}

// standardize writes vector, standardized by std, into the front of
// scratch and returns that part. scratch may be vector itself; when it is
// shorter than vector, a new slice takes the result.
func standardize(std *stats.Standardizer, vector, scratch []float64) []float64 {
	if len(scratch) < len(vector) {
		scratch = make([]float64, len(vector))
	}
	return std.TransformInto(scratch[:len(vector)], vector)
}

// Fit is Train's pipeline over any classifier and feature vector. It
// groups the windows by the coarse context each one carries (one unified
// group when cfg.Mode.UseContext is false), skipping a context that lacks
// either class, and fits one model per group, keyed as in ModelKeys. Each
// group samples up to cfg.MaxPerClass windows per class, standardizes
// them, fits newClassifier() and places the cfg.TargetFRR operating
// threshold on the training scores. vector appends a window's raw feature
// vector to dst and returns the extended slice. A group's rows are laid
// end to end in one array and the classifier gets capped sub-slices of
// it, so a classifier that keeps its rows may append to one without
// touching the next. The experiment harness calls Fit for the
// classifiers and vectors a ModelBundle cannot hold.
func Fit[C ml.BinaryClassifier](legit, impostor []features.WindowSample, cfg TrainConfig, vector func(dst []float64, s features.WindowSample) []float64, newClassifier func() C) (map[string]Scorer[C], error) {
	return fit(legit, [][]features.WindowSample{impostor}, cfg, vector, newClassifier)
}

// fit is Fit with the impostor windows in segments, as TrainPopulation
// takes them.
func fit[C ml.BinaryClassifier](legit []features.WindowSample, impostor [][]features.WindowSample, cfg TrainConfig, vector func(dst []float64, s features.WindowSample) []float64, newClassifier func() C) (map[string]Scorer[C], error) {
	cfg = cfg.withDefaults()
	groups, err := fitGroups(legit, impostor, cfg.Mode)
	if err != nil {
		return nil, err
	}

	// The per-context models are independent given their data split, so
	// train them concurrently — on context mode this halves wall-clock
	// (the paper's stationary/moving pair). Each group gets its own RNG
	// derived from cfg.Seed and the group index, which keeps results
	// deterministic regardless of goroutine scheduling; group 0 seeds
	// with cfg.Seed itself, so single-group (unified) training subsamples
	// exactly as the sequential implementation did.
	scorers := make([]Scorer[C], len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g fitGroup, clf C) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(groupSeed(cfg.Seed, i)))
			scorers[i], errs[i] = fitOne(g.legit, g.impostor, cfg, vector, clf, rng)
		}(i, g, newClassifier())
	}
	wg.Wait()
	out := make(map[string]Scorer[C], len(groups))
	for i, g := range groups {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: train %s model: %w", g.key, errs[i])
		}
		out[g.key] = scorers[i]
	}
	return out, nil
}

// fitGroup is one model's training data: its key in ModelKeys and the
// windows of each class it samples from, as pointers into the caller's
// slices.
type fitGroup struct {
	key      string
	legit    []*features.WindowSample
	impostor []*features.WindowSample
}

// fitGroups splits the windows into Fit's groups: one per coarse context
// that has both classes, in ModelKeys order, or one unified group. A
// group lists its windows in the order of legit and of the impostor
// segments end to end, and points at them where they are: the split
// copies no window, and every group's lists share one array.
func fitGroups(legit []features.WindowSample, impostor [][]features.WindowSample, mode Mode) ([]fitGroup, error) {
	n := 0
	for _, seg := range impostor {
		n += len(seg)
	}
	if len(legit) == 0 {
		return nil, fmt.Errorf("core: no legitimate training windows")
	}
	if n == 0 {
		return nil, fmt.Errorf("core: no impostor training windows")
	}
	// A window is in at most one group, so the array never grows.
	refs := make([]*features.WindowSample, 0, len(legit)+n)
	take := func(seg []features.WindowSample, ctx sensing.CoarseContext) {
		for i := range seg {
			if !mode.UseContext || seg[i].Context.Coarse() == ctx {
				refs = append(refs, &seg[i])
			}
		}
	}
	// group takes one group's windows after refs[:start] and reports
	// whether it has both classes.
	group := func(start int, ctx sensing.CoarseContext) (fitGroup, bool) {
		take(legit, ctx)
		mid := len(refs)
		for _, seg := range impostor {
			take(seg, ctx)
		}
		g := fitGroup{legit: refs[start:mid:mid], impostor: refs[mid:len(refs):len(refs)]}
		return g, len(g.legit) > 0 && len(g.impostor) > 0
	}
	if !mode.UseContext {
		g, _ := group(0, 0)
		g.key = unifiedKey
		return []fitGroup{g}, nil
	}
	groups := make([]fitGroup, 0, 2)
	for _, ctx := range []sensing.CoarseContext{sensing.CoarseStationary, sensing.CoarseMoving} {
		start := len(refs)
		g, ok := group(start, ctx)
		if !ok {
			refs = refs[:start]
			continue // no data for this context yet; the bundle stays partial
		}
		g.key = ctx.String()
		groups = append(groups, g)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: no context has both legitimate and impostor data")
	}
	return groups, nil
}

// groupSeed derives a deterministic per-group RNG seed. Group 0 uses the
// configured seed unchanged (preserving unified-mode results bit-for-bit
// with the sequential trainer); later groups mix in the index with a
// splitmix64-style odd constant so nearby seeds do not collide. Every
// per-context training loop seeds its groups this way, so no group's
// sample depends on the order the groups are visited in.
func groupSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return seed + int64(i)*-0x61c8864680b583eb // 2^64 / golden ratio, as int64
}

// fitOne fits one group's standardizer and classifier and calibrates its
// threshold. The legitimate sample is drawn before the impostor one. The
// first row fixes the width; the rest land in one array sized for all
// of them, and the rows are standardized in place.
func fitOne[C ml.BinaryClassifier](legit, impostor []*features.WindowSample, cfg TrainConfig, vector func([]float64, features.WindowSample) []float64, clf C, rng *rand.Rand) (Scorer[C], error) {
	legitIdx := samplePerm(len(legit), cfg.MaxPerClass, rng)
	impostorIdx := samplePerm(len(impostor), cfg.MaxPerClass, rng)
	n := len(legitIdx) + len(impostorIdx)

	x := make([][]float64, 0, n)
	y := make([]bool, n)
	for i := range legitIdx {
		y[i] = true
	}
	var flat []float64
	appendRows := func(samples []*features.WindowSample, idx []int) {
		for _, j := range idx {
			a := len(flat)
			flat = vector(flat, *samples[j])
			if a == 0 && cap(flat) < n*len(flat) {
				flat = append(make([]float64, 0, n*len(flat)), flat...)
			}
			x = append(x, flat[a:len(flat):len(flat)])
		}
	}
	appendRows(legit, legitIdx)
	appendRows(impostor, impostorIdx)

	std, err := stats.FitStandardizer(x)
	if err != nil {
		return Scorer[C]{}, fmt.Errorf("fit standardizer: %w", err)
	}
	std.TransformAll(x)
	if err := clf.Fit(x, y); err != nil {
		return Scorer[C]{}, fmt.Errorf("fit classifier: %w", err)
	}
	threshold, err := calibrate(clf, x[:len(legitIdx)], x[len(legitIdx):], cfg.TargetFRR)
	if err != nil {
		return Scorer[C]{}, fmt.Errorf("calibrate threshold: %w", err)
	}
	return Scorer[C]{Std: std, Clf: clf, Threshold: threshold}, nil
}

// calibrate places the operating threshold from the model's scores on
// its legitimate and impostor training rows: midway between the lower tail
// of the legitimate user's scores (the targetFRR quantile) and the upper
// tail of the impostor population's (the matching 1-targetFRR quantile).
// When the classes are separated, the threshold lands in the gap between
// them — generalization headroom on both sides; when they overlap, it
// lands inside the overlap, balancing FRR against FAR around the paper's
// convenience-leaning operating point.
func calibrate(clf ml.BinaryClassifier, legitRows, impostorRows [][]float64, targetFRR float64) (float64, error) {
	legit, err := scoreRows(clf, legitRows)
	if err != nil {
		return 0, err
	}
	impostor, err := scoreRows(clf, impostorRows)
	if err != nil {
		return 0, err
	}
	sort.Float64s(legit)
	sort.Float64s(impostor)
	p := clampFloat(targetFRR, 0, 1) * 100
	return (stats.Percentile(legit, p) + stats.Percentile(impostor, 100-p)) / 2, nil
}

// scoreRows scores each (standardized) row.
func scoreRows(clf ml.BinaryClassifier, rows [][]float64) ([]float64, error) {
	scores := make([]float64, len(rows))
	for i, row := range rows {
		s, err := clf.Score(row)
		if err != nil {
			return nil, err
		}
		scores[i] = s
	}
	return scores, nil
}

func clampFloat(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// samplePerm draws the order a class's windows are used in: a uniform
// permutation of n, cut to max when max > 0.
func samplePerm(n, max int, rng *rand.Rand) []int {
	idx := rng.Perm(n)
	if max > 0 && max < len(idx) {
		idx = idx[:max]
	}
	return idx
}
