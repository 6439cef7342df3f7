package core

import (
	"fmt"
	"slices"
	"sync"

	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
)

// Decision is the outcome of authenticating one sensor window.
type Decision struct {
	// Context the detector assigned to the window (CoarseStationary when
	// context dispatch is disabled).
	Context sensing.CoarseContext
	// ContextConfidence is the detector's vote fraction (1 when context
	// dispatch is disabled).
	ContextConfidence float64
	// Score is the classifier decision value — the Confidence Score
	// CS(k) = x_k^T w* of Section V-I.
	Score float64
	// Accepted is Score > 0: the window is attributed to the legitimate
	// user.
	Accepted bool
}

// Authenticator is the phone-side testing module of Section IV-A2: feature
// vectors come in, the context detector picks the authentication model,
// the model classifies, and the decision goes to the response module.
//
// Authenticator is safe for concurrent use: the background authentication
// service and the on-demand checks of the cloud apps may overlap.
type Authenticator struct {
	mu       sync.RWMutex
	detector *ctxdetect.Detector
	bundle   *ModelBundle
}

// NewAuthenticator assembles the testing module from the downloaded
// context-detection model and authentication model bundle. The detector
// may be nil only when the bundle does not use context dispatch.
func NewAuthenticator(detector *ctxdetect.Detector, bundle *ModelBundle) (*Authenticator, error) {
	if bundle == nil || len(bundle.Models) == 0 {
		return nil, fmt.Errorf("core: authenticator needs a model bundle")
	}
	if bundle.Mode.UseContext && detector == nil {
		return nil, fmt.Errorf("core: context-dispatched bundle needs a context detector")
	}
	return &Authenticator{detector: detector, bundle: bundle}, nil
}

// SwapBundle atomically installs a retrained model bundle (the retraining
// flow of Section V-I) without interrupting in-flight authentications.
func (a *Authenticator) SwapBundle(bundle *ModelBundle) error {
	if bundle == nil || len(bundle.Models) == 0 {
		return fmt.Errorf("core: refusing to install empty model bundle")
	}
	if bundle.Mode.UseContext && a.detector == nil {
		return fmt.Errorf("core: context-dispatched bundle needs a context detector")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bundle = bundle
	return nil
}

// Mode returns the installed bundle's mode.
func (a *Authenticator) Mode() Mode {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.bundle.Mode
}

// vecPool recycles feature-vector buffers across Authenticate calls: the
// raw vector and, behind it, its standardized copy. The classifiers only
// read them, so they never escape a call.
var vecPool = sync.Pool{New: func() any {
	s := make([]float64, 0, 2*28)
	return &s
}}

// Authenticate classifies one feature window end to end: context
// detection (always on phone-only features, Section V-E), model dispatch,
// then classification of the mode's feature vector.
func (a *Authenticator) Authenticate(sample features.WindowSample) (Decision, error) {
	a.mu.RLock()
	detector, bundle := a.detector, a.bundle
	a.mu.RUnlock()

	vp := vecPool.Get().(*[]float64)
	d, vec, err := classify(detector, bundle.Mode, bundle.Models, sample, *vp)
	*vp = vec
	vecPool.Put(vp)
	return d, err
}

// scorer is a model classify can dispatch to: it scores a raw feature
// vector, standardizing it into scratch, positive accepting.
type scorer interface {
	Score(vector, scratch []float64) (float64, error)
}

// classify runs one window through context detection, model dispatch and
// scoring, reusing vec as the buffer for the feature vector and its
// standardized copy; it returns the (possibly grown) buffer so callers
// can keep it across windows. It is the one detect → model → score step,
// for the served bundle and the online models alike.
func classify[M scorer](detector *ctxdetect.Detector, mode Mode, models map[string]M, sample features.WindowSample, vec []float64) (Decision, []float64, error) {
	d, model, err := dispatch(detector, mode, models, sample)
	if err != nil {
		return Decision{}, vec, err
	}
	vec = sample.AppendVector(vec[:0], mode.Combined)
	n := len(vec)
	vec = slices.Grow(vec, n)[:2*n]
	score, err := model.Score(vec[:n], vec[n:])
	if err != nil {
		return Decision{}, vec, fmt.Errorf("core: classify: %w", err)
	}
	d.Score = score
	d.Accepted = score > 0
	return d, vec, nil
}

// dispatch detects a window's coarse context (phone-only features,
// Section V-E; stationary when context dispatch is off) and picks the
// model for it.
func dispatch[M any](detector *ctxdetect.Detector, mode Mode, models map[string]M, sample features.WindowSample) (Decision, M, error) {
	d := Decision{Context: sensing.CoarseStationary, ContextConfidence: 1}
	if mode.UseContext {
		det, err := detector.Detect(sample.Phone)
		if err != nil {
			var none M
			return Decision{}, none, fmt.Errorf("core: context detection: %w", err)
		}
		d.Context = det.Context
		d.ContextConfidence = det.Confidence
	}
	m, err := modelFor(models, mode, d.Context)
	return d, m, err
}

// AuthenticateBatch classifies many windows in one call, appending the
// decisions to dst (pass nil or a recycled slice). The bundle is snapped
// once and one pooled feature-vector buffer is reused across the whole
// batch — the server's batch and streaming wire paths lean on this to
// keep the per-window cost at the classify arithmetic alone.
func (a *Authenticator) AuthenticateBatch(samples []features.WindowSample, dst []Decision) ([]Decision, error) {
	a.mu.RLock()
	detector, bundle := a.detector, a.bundle
	a.mu.RUnlock()

	vp := vecPool.Get().(*[]float64)
	vec := *vp
	var err error
	for _, sample := range samples {
		var d Decision
		d, vec, err = classify(detector, bundle.Mode, bundle.Models, sample, vec)
		if err != nil {
			break
		}
		dst = append(dst, d)
	}
	*vp = vec
	vecPool.Put(vp)
	if err != nil {
		return nil, err
	}
	return dst, nil
}
