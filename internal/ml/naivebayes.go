package ml

import (
	"fmt"
	"math"
)

// GaussianNB is a Gaussian naive Bayes classifier — the second weak
// baseline in Table VI. Each feature is modelled as an independent
// Gaussian per class; the decision value is the log-odds
// log P(pos|x) - log P(neg|x).
type GaussianNB struct {
	// VarSmoothing is added to every per-feature variance to keep
	// log-densities finite for near-constant features.
	VarSmoothing float64

	posMean, posVar []float64
	negMean, negVar []float64
	logPriorPos     float64
	logPriorNeg     float64
	dim             int
	fitted          bool
}

var _ BinaryClassifier = (*GaussianNB)(nil)

// NewGaussianNB returns a Gaussian naive Bayes classifier with standard
// variance smoothing.
func NewGaussianNB() *GaussianNB { return &GaussianNB{VarSmoothing: 1e-9} }

// Fit estimates per-class feature means, variances and priors.
func (g *GaussianNB) Fit(x [][]float64, y []bool) error {
	dim, err := checkTrainingSet(x, y)
	if err != nil {
		return err
	}
	g.posMean = make([]float64, dim)
	g.posVar = make([]float64, dim)
	g.negMean = make([]float64, dim)
	g.negVar = make([]float64, dim)
	var nPos, nNeg float64
	for i, row := range x {
		if y[i] {
			nPos++
			for j, v := range row {
				g.posMean[j] += v
			}
		} else {
			nNeg++
			for j, v := range row {
				g.negMean[j] += v
			}
		}
	}
	for j := 0; j < dim; j++ {
		g.posMean[j] /= nPos
		g.negMean[j] /= nNeg
	}
	// Largest feature variance overall scales the smoothing floor, the
	// standard trick to make smoothing unit-independent.
	maxVar := 0.0
	for i, row := range x {
		for j, v := range row {
			var d float64
			if y[i] {
				d = v - g.posMean[j]
				g.posVar[j] += d * d
			} else {
				d = v - g.negMean[j]
				g.negVar[j] += d * d
			}
		}
	}
	for j := 0; j < dim; j++ {
		g.posVar[j] /= nPos
		g.negVar[j] /= nNeg
		if g.posVar[j] > maxVar {
			maxVar = g.posVar[j]
		}
		if g.negVar[j] > maxVar {
			maxVar = g.negVar[j]
		}
	}
	smoothing := g.VarSmoothing
	if smoothing <= 0 {
		smoothing = 1e-9
	}
	floor := smoothing * math.Max(maxVar, 1)
	for j := 0; j < dim; j++ {
		g.posVar[j] += floor
		g.negVar[j] += floor
	}
	total := nPos + nNeg
	g.logPriorPos = math.Log(nPos / total)
	g.logPriorNeg = math.Log(nNeg / total)
	g.dim = dim
	g.fitted = true
	return nil
}

// Score returns the log-odds of the positive class.
func (g *GaussianNB) Score(x []float64) (float64, error) {
	if !g.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != g.dim {
		return 0, fmt.Errorf("%w: feature length %d, model expects %d", ErrBadTrainingSet, len(x), g.dim)
	}
	pos := g.logPriorPos
	neg := g.logPriorNeg
	for j, v := range x {
		pos += logGauss(v, g.posMean[j], g.posVar[j])
		neg += logGauss(v, g.negMean[j], g.negVar[j])
	}
	return pos - neg, nil
}

func logGauss(x, mean, variance float64) float64 {
	d := x - mean
	return -0.5*math.Log(2*math.Pi*variance) - d*d/(2*variance)
}
