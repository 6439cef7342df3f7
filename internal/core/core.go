// Package core implements the SmarterYou system of Section IV: the
// training module (cloud side), the testing module (phone side) with its
// context-dispatched authentication models, the response module and the
// enrollment phase's convergence tracking. The confidence-score
// retraining monitor of Section V-I lives in internal/retrain.
//
// The package is the paper's primary contribution; everything else in
// internal/ is substrate.
package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"smarteryou/internal/ml"
	"smarteryou/internal/sensing"
	"smarteryou/internal/stats"
)

// Errors returned by the core pipeline.
var (
	// ErrNoModel indicates no authentication model exists for the detected
	// context (e.g. the bundle was trained before any moving data existed).
	ErrNoModel = errors.New("core: no model for context")
)

// Mode selects the device and context configuration being evaluated — the
// axes of Table VII.
type Mode struct {
	// Combined uses the two-device 28-dim vector (phone + watch); false
	// uses the 14-dim phone-only vector.
	Combined bool `json:"combined"`
	// UseContext trains and dispatches per-context models; false trains
	// the single unified model the paper argues against.
	UseContext bool `json:"use_context"`
}

// String renders the mode the way Table VII labels its rows.
func (m Mode) String() string {
	device := "smartphone"
	if m.Combined {
		device = "combination"
	}
	ctx := "w/o context"
	if m.UseContext {
		ctx = "w/ context"
	}
	return ctx + " " + device
}

// unifiedKey is the model key used when context dispatch is disabled.
const unifiedKey = "unified"

// ModelKeys lists a mode's model keys in the fixed order every
// per-context loop takes.
func ModelKeys(m Mode) []string {
	if !m.UseContext {
		return []string{unifiedKey}
	}
	return []string{sensing.CoarseStationary.String(), sensing.CoarseMoving.String()}
}

// ContextModel is one per-context authentication model: the feature
// standardization fitted on its training data plus the trained KRR
// classifier (the "file containing parameters for the classification
// algorithm" of Section IV-A2).
type ContextModel struct {
	Std *stats.Standardizer `json:"std"`
	KRR *ml.KRR             `json:"krr"`
	// Threshold is the operating point subtracted from the raw regression
	// value, chosen at training time as the equal-error-rate point of the
	// training scores. With a tight legitimate-user cluster and a diffuse
	// impostor population, the raw zero crossing of the +1/-1 regression
	// sits too far on the impostor side; re-centering at the EER point
	// balances FRR against FAR the way the paper's operating point does.
	Threshold float64 `json:"threshold"`
}

// Score runs the context model's decision function on a raw
// (unstandardized) feature vector. The returned value is the paper's
// Confidence Score for this window: positive accepts, and the magnitude is
// the distance from the operating point. The standardized vector is
// written into scratch, which may be vector itself; a scratch shorter
// than vector is replaced by a new slice.
func (c *ContextModel) Score(vector, scratch []float64) (float64, error) {
	if c == nil || c.Std == nil || c.KRR == nil {
		return 0, ErrNoModel
	}
	raw, err := c.KRR.Score(standardize(c.Std, vector, scratch))
	if err != nil {
		return 0, err
	}
	return raw - c.Threshold, nil
}

// ModelBundle is the set of authentication models the phone downloads
// from the Authentication Server: one model per coarse context, or a
// single unified model.
type ModelBundle struct {
	Mode   Mode                     `json:"mode"`
	Models map[string]*ContextModel `json:"models"`
}

// modelFor is the one context → model key lookup: ctx's model, or the
// unified one when context dispatch is off.
func modelFor[M any](models map[string]M, mode Mode, ctx sensing.CoarseContext) (M, error) {
	key := unifiedKey
	if mode.UseContext {
		key = ctx.String()
	}
	m, ok := models[key]
	if !ok {
		return m, fmt.Errorf("%w %q", ErrNoModel, key)
	}
	return m, nil
}

// CompleteModels gives every context missing from models the first model
// in ModelKeys order, so a context with no training data still gets a
// decision. The served bundle does not do this: its Authenticator returns
// ErrNoModel for a context it has no model for.
func CompleteModels[M any](models map[string]M, mode Mode) {
	keys := ModelKeys(mode)
	var first M
	for _, key := range keys {
		if m, ok := models[key]; ok {
			first = m
			break
		}
	}
	for _, key := range keys {
		if _, ok := models[key]; !ok {
			models[key] = first
		}
	}
}

// Marshal encodes the bundle for download to the phone.
func (b *ModelBundle) Marshal() ([]byte, error) {
	return json.Marshal(b)
}

// UnmarshalModelBundle decodes a bundle received from the server.
func UnmarshalModelBundle(data []byte) (*ModelBundle, error) {
	var b ModelBundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("core: decode model bundle: %w", err)
	}
	for key, m := range b.Models {
		if m == nil || m.Std == nil || m.KRR == nil {
			return nil, fmt.Errorf("core: model bundle entry %q is incomplete", key)
		}
	}
	return &b, nil
}
