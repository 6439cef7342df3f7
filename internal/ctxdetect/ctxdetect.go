// Package ctxdetect implements the user-agnostic context detection of
// Section V-E: a Random Forest trained on phone-only feature vectors
// (Eq. 3) from many users that classifies the current coarse usage context
// — stationary versus moving — before any user authentication happens.
//
// User-agnosticism is the load-bearing property: the detector for a given
// user is trained on *other* users' labelled data, so context can be
// detected for someone the system has never seen, prior to knowing who
// they are.
package ctxdetect

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"smarteryou/internal/features"
	"smarteryou/internal/ml"
	"smarteryou/internal/sensing"
)

// ErrNotTrained is returned when detection is attempted before training.
var ErrNotTrained = errors.New("ctxdetect: detector is not trained")

// LabeledVector is one training observation for the detector: a phone
// feature vector with its ground-truth coarse context, as recorded in the
// paper's controlled lab sessions (20 minutes per context per user).
type LabeledVector struct {
	Vector  []float64
	Context sensing.CoarseContext
}

// FromSamples converts collected window samples into labelled context
// training vectors (phone features only — Section V-E uses no smartwatch
// for context detection).
func FromSamples(samples []features.WindowSample) []LabeledVector {
	out := make([]LabeledVector, len(samples))
	for i, s := range samples {
		out[i] = LabeledVector{
			Vector:  s.Phone.AuthVector(),
			Context: s.Context.Coarse(),
		}
	}
	return out
}

// Detector is the trained user-agnostic context classifier.
type Detector struct {
	forest *ml.RandomForest
}

// Config tunes detector training.
type Config struct {
	// Trees is the forest size; 0 uses the package default (30).
	Trees int
	// Seed makes training deterministic.
	Seed int64
}

// Train fits the Random Forest on labelled vectors from (ideally many)
// users other than the one to be authenticated.
func Train(data []LabeledVector, cfg Config) (*Detector, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("ctxdetect: no training data")
	}
	x := make([][]float64, len(data))
	labels := make([]string, len(data))
	seen := map[string]struct{}{}
	for i, d := range data {
		x[i] = d.Vector
		labels[i] = d.Context.String()
		seen[labels[i]] = struct{}{}
	}
	if len(seen) < 2 {
		return nil, fmt.Errorf("ctxdetect: training data covers only %d context(s); need both", len(seen))
	}
	forest := ml.NewRandomForest()
	if cfg.Trees > 0 {
		forest.Trees = cfg.Trees
	}
	forest.Seed = cfg.Seed
	if err := forest.FitClasses(x, labels); err != nil {
		return nil, fmt.Errorf("ctxdetect: train forest: %w", err)
	}
	return &Detector{forest: forest}, nil
}

// Detection is a context decision with its ensemble confidence.
type Detection struct {
	Context sensing.CoarseContext
	// Confidence is the fraction of forest votes for the winning context.
	Confidence float64
}

// Detect classifies the coarse context of one phone feature window.
func (d *Detector) Detect(phone features.DeviceFeatures) (Detection, error) {
	vp := vecPool.Get().(*[]float64)
	v := phone.AppendAuthVector((*vp)[:0])
	det, err := d.DetectVector(v)
	*vp = v
	vecPool.Put(vp)
	return det, err
}

// Label returns copies of windows whose Context is the detector's coarse
// verdict on each — ContextStationaryUse or ContextMovingUse — the way the
// paper's enrollment flow labels data (Section IV-A). Models trained on the
// copies group every window by the context it will be dispatched under,
// whatever context it was recorded with.
func (d *Detector) Label(windows []features.WindowSample) ([]features.WindowSample, error) {
	out := make([]features.WindowSample, len(windows))
	for i, w := range windows {
		det, err := d.Detect(w.Phone)
		if err != nil {
			return nil, err
		}
		w.Context = sensing.ContextStationaryUse
		if det.Context == sensing.CoarseMoving {
			w.Context = sensing.ContextMovingUse
		}
		out[i] = w
	}
	return out, nil
}

// vecPool recycles the 14-dim phone vectors Detect assembles; the forest
// only reads the vector during voting, so it never escapes a call.
var vecPool = sync.Pool{New: func() any {
	s := make([]float64, 0, 14)
	return &s
}}

// DetectVector classifies a raw 14-dim phone vector.
func (d *Detector) DetectVector(vector []float64) (Detection, error) {
	if d == nil || d.forest == nil {
		return Detection{}, ErrNotTrained
	}
	votes, err := d.forest.Votes(vector)
	if err != nil {
		return Detection{}, fmt.Errorf("ctxdetect: %w", err)
	}
	total := 0
	bestLabel, bestVotes := "", -1
	for _, label := range d.forest.Labels() {
		v := votes[label]
		total += v
		if v > bestVotes {
			bestLabel, bestVotes = label, v
		}
	}
	ctx, err := parseCoarse(bestLabel)
	if err != nil {
		return Detection{}, err
	}
	conf := 0.0
	if total > 0 {
		conf = float64(bestVotes) / float64(total)
	}
	return Detection{Context: ctx, Confidence: conf}, nil
}

func parseCoarse(label string) (sensing.CoarseContext, error) {
	switch label {
	case sensing.CoarseStationary.String():
		return sensing.CoarseStationary, nil
	case sensing.CoarseMoving.String():
		return sensing.CoarseMoving, nil
	default:
		return 0, fmt.Errorf("ctxdetect: unknown context label %q", label)
	}
}

// detectorJSON is the wire form for model download (Section IV-A3: the
// context detection model is downloaded from the Authentication Server at
// enrollment).
type detectorJSON struct {
	Forest *ml.RandomForest `json:"forest"`
}

// MarshalJSON implements json.Marshaler.
func (d *Detector) MarshalJSON() ([]byte, error) {
	return json.Marshal(detectorJSON{Forest: d.forest})
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Detector) UnmarshalJSON(data []byte) error {
	var m detectorJSON
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("ctxdetect: decode detector: %w", err)
	}
	if m.Forest == nil {
		return fmt.Errorf("ctxdetect: decoded detector has no forest")
	}
	d.forest = m.Forest
	return nil
}
