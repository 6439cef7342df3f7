package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of the sample, or NaN when empty.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of the sample, or NaN when
// empty.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// Pearson computes the Pearson correlation coefficient between two
// equal-length samples. It returns 0 for degenerate inputs (length < 2 or
// zero variance), which is the neutral value for the redundancy analysis of
// Tables III and IV.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// FisherScore computes the Fisher score of a scalar feature across classes,
// the supervised feature-selection criterion the paper uses to pick sensors
// (Table II):
//
//	FS = sum_c n_c (mu_c - mu)^2 / sum_c n_c sigma_c^2
//
// where classes with larger between-class spread relative to within-class
// variance score higher. classes maps class label -> feature observations.
func FisherScore(classes map[string][]float64) (float64, error) {
	if len(classes) < 2 {
		return 0, ErrInsufficientData
	}
	// Sum the classes in label order, so the score's last bits do not
	// depend on map iteration order.
	labels := make([]string, 0, len(classes))
	var all []float64
	for label, obs := range classes {
		if len(obs) == 0 {
			return 0, ErrInsufficientData
		}
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		all = append(all, classes[label]...)
	}
	grand := Mean(all)
	var between, within float64
	for _, label := range labels {
		obs := classes[label]
		n := float64(len(obs))
		m := Mean(obs)
		between += n * (m - grand) * (m - grand)
		within += n * Variance(obs)
	}
	if within == 0 {
		return math.Inf(1), nil
	}
	return between / within, nil
}

// Standardizer centers and scales feature vectors to zero mean and unit
// variance per dimension, fit on training data only so that test data never
// leaks into the scaling (a requirement for honest cross-validation).
type Standardizer struct {
	mean  []float64
	scale []float64
}

// FitStandardizer learns per-dimension means and standard deviations from
// the rows of x.
func FitStandardizer(x [][]float64) (*Standardizer, error) {
	if len(x) == 0 || len(x[0]) == 0 {
		return nil, ErrInsufficientData
	}
	dim := len(x[0])
	s := &Standardizer{mean: make([]float64, dim), scale: make([]float64, dim)}
	for _, row := range x {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	n := float64(len(x))
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.mean[j]
			s.scale[j] += d * d
		}
	}
	for j := range s.scale {
		s.scale[j] = math.Sqrt(s.scale[j] / n)
		if s.scale[j] < 1e-12 {
			s.scale[j] = 1 // constant feature: leave it centered only
		}
	}
	return s, nil
}

// Transform returns a standardized copy of v.
func (s *Standardizer) Transform(v []float64) []float64 {
	return s.TransformInto(make([]float64, len(v)), v)
}

// TransformInto standardizes v into dst, which must be as long as v, and
// returns dst; dst may be v itself.
func (s *Standardizer) TransformInto(dst, v []float64) []float64 {
	for j := range v {
		if j < len(s.mean) {
			dst[j] = (v[j] - s.mean[j]) / s.scale[j]
		} else {
			dst[j] = v[j]
		}
	}
	return dst
}

// TransformAll standardizes every row of x in place and returns x: the
// caller owns the rows and no longer needs them raw.
func (s *Standardizer) TransformAll(x [][]float64) [][]float64 {
	for _, row := range x {
		s.TransformInto(row, row)
	}
	return x
}

// standardizerJSON is the wire form of a fitted Standardizer, so that the
// scaling learned in the cloud travels with the downloaded model.
type standardizerJSON struct {
	Mean  []float64 `json:"mean"`
	Scale []float64 `json:"scale"`
}

// MarshalJSON implements json.Marshaler.
func (s *Standardizer) MarshalJSON() ([]byte, error) {
	return json.Marshal(standardizerJSON{Mean: s.mean, Scale: s.scale})
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Standardizer) UnmarshalJSON(data []byte) error {
	var m standardizerJSON
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("stats: decode standardizer: %w", err)
	}
	if len(m.Mean) != len(m.Scale) {
		return fmt.Errorf("stats: standardizer mean/scale lengths differ: %d vs %d", len(m.Mean), len(m.Scale))
	}
	s.mean = m.Mean
	s.scale = m.Scale
	return nil
}
