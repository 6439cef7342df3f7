package core

import (
	"fmt"
	"sync"

	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/ml"
)

// onlineKRR is the classifier TrainOnline fits through Fit: an
// IncrementalKRR that keeps the standardized rows it was fitted on, the
// legitimate ones oldest first, so they can be exactly unlearned later
// and the threshold recalibrated on what the model currently holds.
type onlineKRR struct {
	*ml.IncrementalKRR
	rho             float64
	legit, impostor [][]float64
}

// Fit implements ml.BinaryClassifier: a fresh incremental model over x,
// retaining x's rows by class.
func (k *onlineKRR) Fit(x [][]float64, y []bool) error {
	if len(x) == 0 {
		return fmt.Errorf("%w: no training rows", ml.ErrBadTrainingSet)
	}
	inc, err := ml.NewIncrementalKRR(k.rho, len(x[0]))
	if err != nil {
		return err
	}
	if err := inc.Fit(x, y); err != nil {
		return err
	}
	k.IncrementalKRR, k.legit, k.impostor = inc, nil, nil
	for i, row := range x {
		if y[i] {
			k.legit = append(k.legit, row)
		} else {
			k.impostor = append(k.impostor, row)
		}
	}
	return nil
}

// onlineModel is one context's continuously updating model.
type onlineModel struct {
	Scorer[*onlineKRR]
	adaptsSince int
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
	detector  *ctxdetect.Detector
	mode      Mode
	window    int
	targetFRR float64

	mu     sync.Mutex
	models map[string]*onlineModel
}

// TrainOnline initializes the online authenticator from enrollment data:
// Fit's pipeline, exactly as Train runs it, over incrementally updatable
// models. cfg.MaxPerClass is also the retention window: how many
// legitimate windows each context model keeps as it adapts. A context
// with no model of its own uses the first one in ModelKeys order.
func TrainOnline(detector *ctxdetect.Detector, legit, impostor []features.WindowSample, cfg TrainConfig) (*OnlineAuthenticator, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxPerClass <= 0 {
		return nil, fmt.Errorf("core: online training needs a retention window (MaxPerClass > 0), got %d", cfg.MaxPerClass)
	}
	if cfg.Mode.UseContext && detector == nil {
		return nil, fmt.Errorf("core: context mode needs a detector")
	}
	scorers, err := Fit(legit, impostor, cfg,
		func(dst []float64, s features.WindowSample) []float64 { return s.AppendVector(dst, cfg.Mode.Combined) },
		func() *onlineKRR { return &onlineKRR{rho: cfg.Rho} })
	if err != nil {
		return nil, err
	}
	o := &OnlineAuthenticator{
		detector:  detector,
		mode:      cfg.Mode,
		window:    cfg.MaxPerClass,
		targetFRR: cfg.TargetFRR,
		models:    make(map[string]*onlineModel, len(scorers)),
	}
	for key, s := range scorers {
		o.models[key] = &onlineModel{Scorer: s}
	}
	CompleteModels(o.models, cfg.Mode)
	return o, nil
}

// Authenticate classifies one window.
func (o *OnlineAuthenticator) Authenticate(sample features.WindowSample) (Decision, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	d, _, err := classify(o.detector, o.mode, o.models, sample, nil)
	return d, err
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
	o.mu.Lock()
	defer o.mu.Unlock()
	_, m, err := dispatch(o.detector, o.mode, o.models, sample)
	if err != nil {
		return err
	}
	k := m.Clf
	row := m.Std.Transform(sample.Vector(o.mode.Combined))
	if err := k.AddSample(row, true); err != nil {
		return err
	}
	k.legit = append(k.legit, row)
	for len(k.legit) > o.window {
		if err := k.RemoveSample(k.legit[0], true); err != nil {
			return fmt.Errorf("core: unlearn oldest window: %w", err)
		}
		k.legit = k.legit[1:]
	}
	// Periodically re-center the operating threshold on the moved model.
	m.adaptsSince++
	if m.adaptsSince >= 25 {
		m.adaptsSince = 0
		if m.Threshold, err = calibrate(k, k.legit, k.impostor, o.targetFRR); err != nil {
			return fmt.Errorf("core: recalibrate: %w", err)
		}
	}
	return nil
}

// retainedWindows reports how many legitimate windows each context model
// currently holds.
func (o *OnlineAuthenticator) retainedWindows() map[string]int {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]int, len(o.models))
	for key, m := range o.models {
		out[key] = len(m.Clf.legit)
	}
	return out
}
