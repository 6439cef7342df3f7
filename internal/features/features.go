// Package features implements the feature pipeline of Sections V-C and
// V-D: sensor streams are windowed, each window's magnitude series is
// summarized by time-domain statistics (mean, variance, max, min, range)
// and frequency-domain statistics (amplitude and frequency of the two
// dominant spectral peaks), and the per-device summaries are assembled
// into the paper's feature vectors:
//
//   - the 9-feature-per-sensor candidate set the selection study starts
//     from,
//   - the pruned 7-feature set (Peak2_f dropped by the KS test of Fig. 3,
//     Ran dropped by the correlation analysis of Table III),
//   - the 14-dimensional single-device authentication/context vector
//     (Eq. 3) and the 28-dimensional two-device vector (Eq. 4).
package features

import (
	"fmt"
	"sync"

	"smarteryou/internal/dsp"
	"smarteryou/internal/sensing"
)

// SensorFeatures holds all nine candidate statistics of one sensor's
// magnitude stream in one window (Section V-C).
type SensorFeatures struct {
	Mean   float64
	Var    float64
	Max    float64
	Min    float64
	Ran    float64
	Peak   float64
	PeakF  float64
	Peak2  float64
	Peak2F float64
}

// CandidateNames lists the nine candidate features in the paper's order.
func CandidateNames() []string {
	return []string{"Mean", "Var", "Max", "Min", "Ran", "Peak", "Peak f", "Peak2", "Peak2 f"}
}

// PrunedNames lists the seven features that survive the selection study:
// Peak2_f fails the KS test (Fig. 3) and Ran is redundant with Var
// (Table III).
func PrunedNames() []string {
	return []string{"Mean", "Var", "Max", "Min", "Peak", "Peak f", "Peak2"}
}

// ByName returns the named candidate feature value.
func (s SensorFeatures) ByName(name string) (float64, error) {
	switch name {
	case "Mean":
		return s.Mean, nil
	case "Var":
		return s.Var, nil
	case "Max":
		return s.Max, nil
	case "Min":
		return s.Min, nil
	case "Ran":
		return s.Ran, nil
	case "Peak":
		return s.Peak, nil
	case "Peak f":
		return s.PeakF, nil
	case "Peak2":
		return s.Peak2, nil
	case "Peak2 f":
		return s.Peak2F, nil
	default:
		return 0, fmt.Errorf("features: unknown feature %q", name)
	}
}

// Pruned returns the 7-element pruned feature slice in PrunedNames order —
// the SP_i(k) = [SP_i^t(k), SP_i^f(k)] vector of Eq. 1 and Eq. 2.
func (s SensorFeatures) Pruned() []float64 {
	return []float64{s.Mean, s.Var, s.Max, s.Min, s.Peak, s.PeakF, s.Peak2}
}

// AppendPruned appends the pruned features to dst — the allocation-free
// form of Pruned for callers assembling vectors into reused buffers.
func (s SensorFeatures) AppendPruned(dst []float64) []float64 {
	return append(dst, s.Mean, s.Var, s.Max, s.Min, s.Peak, s.PeakF, s.Peak2)
}

// All returns all nine candidate features in CandidateNames order.
func (s SensorFeatures) All() []float64 {
	return []float64{s.Mean, s.Var, s.Max, s.Min, s.Ran, s.Peak, s.PeakF, s.Peak2, s.Peak2F}
}

// Extractor owns the FFT plan and scratch buffers of the per-window
// feature pipeline: the detrend buffer, the magnitude series, and the
// reused amplitude spectrum. Holding one across windows (and across
// streams, as Collect does) makes the hot path allocation-free where
// the stateless package functions re-derived everything per window.
//
// An Extractor is NOT safe for concurrent use; give each goroutine its
// own, or use the package-level functions, which draw from a shared pool.
type Extractor struct {
	plan    *dsp.FFTPlan
	spec    dsp.Spectrum
	detrend []float64
	accMag  []float64
	gyrMag  []float64
}

// NewExtractor returns an empty extractor; plans and buffers are sized on
// first use and re-sized when the window length changes.
func NewExtractor() *Extractor {
	return &Extractor{}
}

// extractorPool backs the stateless package entry points so repeated
// calls reuse plans and scratch instead of reallocating them.
var extractorPool = sync.Pool{New: func() any { return NewExtractor() }}

// ensurePlan points the extractor's plan at the window length.
func (e *Extractor) ensurePlan(size int) error {
	if e.plan != nil && e.plan.Len() == size {
		return nil
	}
	p, err := dsp.PlanFor(size)
	if err != nil {
		return err
	}
	e.plan = p
	return nil
}

// growFloats returns s resized to n, reusing its backing array when
// possible.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// ExtractSensor computes the nine candidate statistics of one magnitude
// window sampled at rate Hz. The spectral statistics are computed on the
// detrended window so the DC component (gravity, for the accelerometer)
// does not mask the motion spectrum.
func (e *Extractor) ExtractSensor(window []float64, rate float64) (SensorFeatures, error) {
	ts, err := dsp.Stats(window)
	if err != nil {
		return SensorFeatures{}, fmt.Errorf("features: time-domain stats: %w", err)
	}
	if err := e.ensurePlan(len(window)); err != nil {
		return SensorFeatures{}, fmt.Errorf("features: spectrum: %w", err)
	}
	// Detrend into the reused buffer: same subtraction as dsp.Detrend,
	// without the per-window allocation.
	e.detrend = growFloats(e.detrend, len(window))
	for i, v := range window {
		e.detrend[i] = v - ts.Mean
	}
	if err := e.plan.AmplitudeSpectrumInto(&e.spec, e.detrend, rate); err != nil {
		return SensorFeatures{}, fmt.Errorf("features: spectrum: %w", err)
	}
	peaks := e.spec.Peaks()
	return SensorFeatures{
		Mean:   ts.Mean,
		Var:    ts.Var,
		Max:    ts.Max,
		Min:    ts.Min,
		Ran:    ts.Ran,
		Peak:   peaks.Peak,
		PeakF:  peaks.PeakF,
		Peak2:  peaks.Peak2,
		Peak2F: peaks.Peak2F,
	}, nil
}

// ExtractSensor computes the nine candidate statistics of one magnitude
// window using a pooled extractor. Hot paths that process many windows
// should hold an Extractor instead.
func ExtractSensor(window []float64, rate float64) (SensorFeatures, error) {
	e := extractorPool.Get().(*Extractor)
	sf, err := e.ExtractSensor(window, rate)
	extractorPool.Put(e)
	return sf, err
}

// DeviceFeatures summarizes one device's accelerometer and gyroscope in
// one window.
type DeviceFeatures struct {
	Acc SensorFeatures
	Gyr SensorFeatures
}

// AuthVector returns the 14-element single-device vector of Eq. 3:
// pruned accelerometer features followed by pruned gyroscope features.
func (d DeviceFeatures) AuthVector() []float64 {
	return d.AppendAuthVector(make([]float64, 0, 14))
}

// AppendAuthVector appends the Eq. 3 vector to dst without intermediate
// allocations.
func (d DeviceFeatures) AppendAuthVector(dst []float64) []float64 {
	return d.Gyr.AppendPruned(d.Acc.AppendPruned(dst))
}

// FullVector returns the 18-element unpruned vector (both sensors, all
// nine candidates), used by the feature-pruning ablation.
func (d DeviceFeatures) FullVector() []float64 {
	return append(d.Acc.All(), d.Gyr.All()...)
}

// AccOnlyVector returns just the pruned accelerometer features, used by
// the sensor ablation (accelerometer-only baselines like Nickel et al.).
func (d DeviceFeatures) AccOnlyVector() []float64 {
	return d.Acc.Pruned()
}

// CombinedAuthVector returns the 28-element two-device vector of Eq. 4:
// Authenticate(k) = [SP(k), SW(k)].
func CombinedAuthVector(phone, watch DeviceFeatures) []float64 {
	return append(phone.AuthVector(), watch.AuthVector()...)
}

// VectorDim returns the authentication vector dimensionality for a device
// count (14 for one device, 28 for two) — Section V-F1.
func VectorDim(devices int) int { return 14 * devices }

// ExtractWindows slices a stream into non-overlapping windows of
// windowSeconds and computes DeviceFeatures for each. Windows shorter than
// the full length at the stream tail are dropped, matching dsp.Windows.
func (e *Extractor) ExtractWindows(stream *sensing.Stream, windowSeconds float64) ([]DeviceFeatures, error) {
	if stream == nil || len(stream.Samples) == 0 {
		return nil, fmt.Errorf("features: empty stream")
	}
	if windowSeconds <= 0 {
		return nil, fmt.Errorf("features: window must be positive, got %g", windowSeconds)
	}
	size := int(windowSeconds * stream.Rate)
	if size <= 0 {
		return nil, fmt.Errorf("features: window of %g s at %g Hz has no samples", windowSeconds, stream.Rate)
	}

	// Both magnitude series in one pass over the samples, into reused
	// buffers — the stateless path allocated eight slices here.
	n := len(stream.Samples)
	e.accMag = growFloats(e.accMag, n)
	e.gyrMag = growFloats(e.gyrMag, n)
	for i := range stream.Samples {
		smp := &stream.Samples[i]
		e.accMag[i] = dsp.Magnitude(smp.Acc.X, smp.Acc.Y, smp.Acc.Z)
		e.gyrMag[i] = dsp.Magnitude(smp.Gyr.X, smp.Gyr.Y, smp.Gyr.Z)
	}

	out := make([]DeviceFeatures, n/size)
	for i := range out {
		lo, hi := i*size, (i+1)*size
		acc, err := e.ExtractSensor(e.accMag[lo:hi], stream.Rate)
		if err != nil {
			return nil, fmt.Errorf("features: window %d acc: %w", i, err)
		}
		gyr, err := e.ExtractSensor(e.gyrMag[lo:hi], stream.Rate)
		if err != nil {
			return nil, fmt.Errorf("features: window %d gyr: %w", i, err)
		}
		out[i] = DeviceFeatures{Acc: acc, Gyr: gyr}
	}
	return out, nil
}

// ExtractWindows is the stateless form of Extractor.ExtractWindows,
// backed by the shared extractor pool; existing callers keep this
// signature and still reuse plans and scratch across calls.
func ExtractWindows(stream *sensing.Stream, windowSeconds float64) ([]DeviceFeatures, error) {
	e := extractorPool.Get().(*Extractor)
	out, err := e.ExtractWindows(stream, windowSeconds)
	extractorPool.Put(e)
	return out, err
}
