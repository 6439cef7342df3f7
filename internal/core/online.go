package core

import (
	"fmt"
	"math/rand"
	"sync"

	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/ml"
	"smarteryou/internal/sensing"
	"smarteryou/internal/stats"
)

// OnlineConfig parameterizes the online-adapting authenticator.
type OnlineConfig struct {
	// Mode selects devices and context dispatch.
	Mode Mode
	// Rho is the ridge strength (default 1).
	Rho float64
	// Window is the per-class sliding retention window: how many
	// legitimate (and impostor) windows each context model keeps. Default
	// 400 — the paper's per-class share of the optimal N=800.
	Window int
	// TargetFRR sets the initial operating point (default 0.03).
	TargetFRR float64
	// Seed drives impostor subsampling at initialization.
	Seed int64
}

func (c OnlineConfig) withDefaults() OnlineConfig {
	if c.Rho == 0 {
		c.Rho = 1
	}
	if c.Window == 0 {
		c.Window = 400
	}
	if c.TargetFRR == 0 {
		c.TargetFRR = 0.03
	}
	return c
}

// onlineModel is one context's continuously-updating model.
type onlineModel struct {
	std       *stats.Standardizer
	inc       *ml.IncrementalKRR
	threshold float64
	targetFRR float64
	// legitQueue holds the standardized legitimate vectors currently in
	// the model, oldest first, for exact unlearning.
	legitQueue [][]float64
	// impostorVecs holds the standardized impostor vectors currently in
	// the model; impostorReserve holds further population vectors that are
	// fed in as the owner's side grows, keeping the classes balanced.
	impostorVecs    [][]float64
	impostorReserve [][]float64
	window          int
	adaptsSince     int
}

// OnlineAuthenticator is the device-local alternative to cloud retraining
// that Section V-I points at via machine unlearning [Cao & Yang 2015]:
// instead of uploading the latest behaviour and retraining from scratch,
// the model incorporates each freshly authenticated window in O(M^2) and
// *unlearns* the oldest one, so the model tracks behavioural drift
// continuously and old behaviour is provably forgotten.
//
// The impostor population is fixed at initialization (it comes from the
// anonymized cloud store and does not drift with the owner); only the
// owner's side of the model slides.
type OnlineAuthenticator struct {
	detector *ctxdetect.Detector
	mode     Mode

	mu     sync.Mutex
	models map[string]*onlineModel
}

// TrainOnline initializes the online authenticator from enrollment data,
// exactly like Train, but with incrementally updatable models.
func TrainOnline(detector *ctxdetect.Detector, legit, impostor []features.WindowSample, cfg OnlineConfig) (*OnlineAuthenticator, error) {
	cfg = cfg.withDefaults()
	if len(legit) == 0 || len(impostor) == 0 {
		return nil, fmt.Errorf("core: online training needs both classes")
	}
	if cfg.Mode.UseContext && detector == nil {
		return nil, fmt.Errorf("core: context mode needs a detector")
	}
	o := &OnlineAuthenticator{
		detector: detector,
		mode:     cfg.Mode,
		models:   make(map[string]*onlineModel),
	}

	group := func(samples []features.WindowSample) map[string][]features.WindowSample {
		out := map[string][]features.WindowSample{}
		for _, s := range samples {
			key := unifiedKey
			if cfg.Mode.UseContext {
				key = s.Context.Coarse().String()
			}
			out[key] = append(out[key], s)
		}
		return out
	}
	legitBy, impostorBy := group(legit), group(impostor)
	for i, key := range ModelKeys(cfg.Mode) {
		lg, im := legitBy[key], impostorBy[key]
		if len(lg) == 0 || len(im) == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(groupSeed(cfg.Seed, i)))
		model, err := newOnlineModel(lg, im, cfg, rng)
		if err != nil {
			return nil, fmt.Errorf("core: online %s model: %w", key, err)
		}
		o.models[key] = model
	}
	if len(o.models) == 0 {
		return nil, fmt.Errorf("core: no context has both classes")
	}
	return o, nil
}

func newOnlineModel(legit, impostor []features.WindowSample, cfg OnlineConfig, rng *rand.Rand) (*onlineModel, error) {
	take := func(in []features.WindowSample, cap int) [][]float64 {
		idx := rng.Perm(len(in))
		if cap < len(idx) {
			idx = idx[:cap]
		}
		out := make([][]float64, len(idx))
		for i, j := range idx {
			out[i] = in[j].Vector(cfg.Mode.Combined)
		}
		return out
	}
	lv := take(legit, cfg.Window)
	// Keep the classes balanced: a small enrollment set against the full
	// population store would bias the regression hard toward rejection.
	// Extra impostor windows go into a reserve that is fed in as the
	// owner's side grows.
	iv := take(impostor, cfg.Window)
	all := append(append([][]float64{}, lv...), iv...)
	std, err := stats.FitStandardizer(all)
	if err != nil {
		return nil, err
	}
	inc, err := ml.NewIncrementalKRR(cfg.Rho, len(all[0]))
	if err != nil {
		return nil, err
	}
	m := &onlineModel{std: std, inc: inc, window: cfg.Window, targetFRR: cfg.TargetFRR}
	for _, v := range lv {
		sv := std.Transform(v)
		if err := inc.AddSample(sv, true); err != nil {
			return nil, err
		}
		m.legitQueue = append(m.legitQueue, sv)
	}
	for i, v := range iv {
		sv := std.Transform(v)
		if i < len(lv) {
			if err := inc.AddSample(sv, false); err != nil {
				return nil, err
			}
			m.impostorVecs = append(m.impostorVecs, sv)
		} else {
			m.impostorReserve = append(m.impostorReserve, sv)
		}
	}
	if err := m.recalibrate(); err != nil {
		return nil, err
	}
	return m, nil
}

// recalibrate re-derives the operating threshold from the model's current
// scores on its retained windows — O(W*M), cheap enough to run
// periodically as the owner's side slides.
func (m *onlineModel) recalibrate() error {
	var legitScores, impostorScores []float64
	for _, sv := range m.legitQueue {
		s, err := m.inc.Score(sv)
		if err != nil {
			return err
		}
		legitScores = append(legitScores, s)
	}
	for _, sv := range m.impostorVecs {
		s, err := m.inc.Score(sv)
		if err != nil {
			return err
		}
		impostorScores = append(impostorScores, s)
	}
	m.threshold = operatingThreshold(legitScores, impostorScores, m.targetFRR)
	return nil
}

// modelFor picks the context model (the first model in key order as
// fallback, mirroring the experiment harness's behaviour for contexts
// unseen at initialization).
func (o *OnlineAuthenticator) modelFor(ctx sensing.CoarseContext) *onlineModel {
	key := unifiedKey
	if o.mode.UseContext {
		key = ctx.String()
	}
	if m, ok := o.models[key]; ok {
		return m
	}
	for _, key := range ModelKeys(o.mode) {
		if m, ok := o.models[key]; ok {
			return m
		}
	}
	return nil
}

// Authenticate classifies one window.
func (o *OnlineAuthenticator) Authenticate(sample features.WindowSample) (Decision, error) {
	d := Decision{Context: sensing.CoarseStationary, ContextConfidence: 1}
	if o.mode.UseContext {
		det, err := o.detector.Detect(sample.Phone)
		if err != nil {
			return Decision{}, fmt.Errorf("core: context detection: %w", err)
		}
		d.Context = det.Context
		d.ContextConfidence = det.Confidence
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	m := o.modelFor(d.Context)
	if m == nil {
		return Decision{}, ErrNoModel
	}
	raw, err := m.inc.Score(m.std.Transform(sample.Vector(o.mode.Combined)))
	if err != nil {
		return Decision{}, err
	}
	d.Score = raw - m.threshold
	d.Accepted = d.Score > 0
	return d, nil
}

// Adapt folds one of the owner's windows into the model and unlearns the
// oldest retained one. Callers should gate this on the response module's
// state — adapt while the device is unlocked and the session is attributed
// to the owner — rather than on per-window acceptance: gating window by
// window starves the model of exactly the drifted windows it needs to
// learn (a selection-feedback loop). The security argument mirrors
// Section V-I's retraining: an attacker is locked out within ~3 windows
// (Fig. 6), so at most a couple of his windows ever enter the model, and
// they age out of the sliding window.
func (o *OnlineAuthenticator) Adapt(sample features.WindowSample) error {
	ctx := sensing.CoarseStationary
	if o.mode.UseContext {
		det, err := o.detector.Detect(sample.Phone)
		if err != nil {
			return fmt.Errorf("core: context detection: %w", err)
		}
		ctx = det.Context
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	m := o.modelFor(ctx)
	if m == nil {
		return ErrNoModel
	}
	sv := m.std.Transform(sample.Vector(o.mode.Combined))
	if err := m.inc.AddSample(sv, true); err != nil {
		return err
	}
	m.legitQueue = append(m.legitQueue, sv)
	for len(m.legitQueue) > m.window {
		oldest := m.legitQueue[0]
		m.legitQueue = m.legitQueue[1:]
		if err := m.inc.RemoveSample(oldest, true); err != nil {
			return fmt.Errorf("core: unlearn oldest window: %w", err)
		}
	}
	// Keep the classes balanced as the owner's side grows.
	for len(m.impostorVecs) < len(m.legitQueue) && len(m.impostorReserve) > 0 {
		iv := m.impostorReserve[0]
		m.impostorReserve = m.impostorReserve[1:]
		if err := m.inc.AddSample(iv, false); err != nil {
			return fmt.Errorf("core: grow impostor side: %w", err)
		}
		m.impostorVecs = append(m.impostorVecs, iv)
	}
	// Periodically re-center the operating threshold on the moved model.
	m.adaptsSince++
	if m.adaptsSince >= 25 {
		m.adaptsSince = 0
		if err := m.recalibrate(); err != nil {
			return fmt.Errorf("core: recalibrate: %w", err)
		}
	}
	return nil
}

// RetainedWindows reports how many legitimate windows each context model
// currently holds.
func (o *OnlineAuthenticator) RetainedWindows() map[string]int {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]int, len(o.models))
	for key, m := range o.models {
		out[key] = len(m.legitQueue)
	}
	return out
}
