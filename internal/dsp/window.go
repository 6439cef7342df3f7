package dsp

import (
	"fmt"
	"math"
)

// Magnitude computes the Euclidean magnitude of a tri-axial sample, the
// m = sqrt(x^2+y^2+z^2) quantity the paper computes from each
// accelerometer/gyroscope reading before windowing.
func Magnitude(x, y, z float64) float64 {
	return math.Sqrt(x*x + y*y + z*z)
}

// MagnitudeSeries converts parallel axis slices into a magnitude stream.
func MagnitudeSeries(x, y, z []float64) ([]float64, error) {
	if len(x) != len(y) || len(y) != len(z) {
		return nil, fmt.Errorf("dsp: axis length mismatch %d/%d/%d", len(x), len(y), len(z))
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = Magnitude(x[i], y[i], z[i])
	}
	return out, nil
}

// Windows slices a stream into non-overlapping windows of size samples,
// dropping any trailing partial window (matching the paper's fixed-length
// authentication windows). The returned windows share the backing array of
// the input; callers must not mutate them.
func Windows(stream []float64, size int) ([][]float64, error) {
	if size <= 0 {
		return nil, fmt.Errorf("dsp: window size must be positive, got %d", size)
	}
	n := len(stream) / size
	out := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, stream[i*size:(i+1)*size])
	}
	return out, nil
}

// WindowStats holds the time-domain statistics of one sensor window
// (Section V-C of the paper).
type WindowStats struct {
	Mean float64
	Var  float64
	Max  float64
	Min  float64
	Ran  float64 // Max - Min; the paper drops it as redundant with Var, but the feature-selection study needs it
}

// Stats computes the time-domain statistics of a window. Variance is the
// population variance (dividing by N), which is the convention for signal
// energy statistics over fixed windows.
func Stats(w []float64) (WindowStats, error) {
	s, err := spread(w)
	if err != nil {
		return s, err
	}
	ss := 0.0
	for _, v := range w {
		d := v - s.Mean
		ss += d * d
	}
	s.Var = ss / float64(len(w))
	return s, nil
}

// StatsDetrend is Stats(w) and Detrend(w) in two passes instead of four:
// the first finds sum, max and min, the second writes w minus its mean to
// dst[:len(w)] and sums the squares. Every operation, and its order, is
// Stats' and Detrend's, so the results are theirs bit for bit.
func StatsDetrend(dst, w []float64) (WindowStats, error) {
	s, err := spread(w)
	if err != nil {
		return s, err
	}
	dst = dst[:len(w)]
	ss := 0.0
	for i, v := range w {
		d := v - s.Mean
		dst[i] = d
		ss += d * d
	}
	s.Var = ss / float64(len(w))
	return s, nil
}

// spread is the first pass of Stats: mean, max, min and range.
func spread(w []float64) (WindowStats, error) {
	if len(w) == 0 {
		return WindowStats{}, ErrEmptyInput
	}
	var s WindowStats
	s.Max = w[0]
	s.Min = w[0]
	sum := 0.0
	for _, v := range w {
		sum += v
		if v > s.Max {
			s.Max = v
		}
		if v < s.Min {
			s.Min = v
		}
	}
	s.Mean = sum / float64(len(w))
	s.Ran = s.Max - s.Min
	return s, nil
}

// Detrend subtracts the mean from a window in a new slice. Removing DC
// before the spectral analysis keeps gravity (for the accelerometer) from
// dominating the peak search.
func Detrend(w []float64) []float64 {
	if len(w) == 0 {
		return nil
	}
	mean := 0.0
	for _, v := range w {
		mean += v
	}
	mean /= float64(len(w))
	out := make([]float64, len(w))
	for i, v := range w {
		out[i] = v - mean
	}
	return out
}
