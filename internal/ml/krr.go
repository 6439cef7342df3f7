package ml

import (
	"fmt"
	"math"

	"smarteryou/internal/linalg"
)

// Kernel is a positive-definite kernel function on feature vectors.
type Kernel interface {
	// Eval returns k(a, b).
	Eval(a, b []float64) (float64, error)
	// Name identifies the kernel for model serialization.
	Name() string
}

// IdentityKernel is the linear kernel k(a,b) = a.b. With it, KRR reduces to
// ridge regression and admits the primal solve of the paper's Eq. 7, whose
// cost depends on the feature dimension M (28) rather than the training-set
// size N (~800) — the complexity reduction Section V-H1 highlights.
type IdentityKernel struct{}

// Eval implements Kernel.
func (IdentityKernel) Eval(a, b []float64) (float64, error) { return linalg.Dot(a, b) }

// Name implements Kernel.
func (IdentityKernel) Name() string { return "identity" }

// RBFKernel is the Gaussian kernel k(a,b) = exp(-gamma * ||a-b||^2).
type RBFKernel struct {
	Gamma float64
}

// Eval implements Kernel.
func (k RBFKernel) Eval(a, b []float64) (float64, error) {
	d, err := linalg.SquaredDistance(a, b)
	if err != nil {
		return 0, err
	}
	return math.Exp(-k.Gamma * d), nil
}

// Name implements Kernel.
func (k RBFKernel) Name() string { return "rbf" }

// KRRMode selects which of the two mathematically equivalent solutions of
// the KRR objective is computed.
type KRRMode int

const (
	// KRRModeAuto picks primal when the feature dimension is smaller than
	// the training-set size (and the kernel is the identity), else dual.
	KRRModeAuto KRRMode = iota + 1
	// KRRModePrimal solves Eq. 7: w* = (S + rho*I_J)^{-1} Phi y, an MxM
	// system. Only valid for the identity kernel.
	KRRModePrimal
	// KRRModeDual solves Eq. 6: alpha = (K + rho*I_N)^{-1} y, an NxN
	// system. Valid for any kernel.
	KRRModeDual
)

// KRR is the kernel ridge regression classifier of Section V-F2. Labels are
// regressed to +1/-1 and the decision function is the regression value; its
// sign is the class and its magnitude is the paper's Confidence Score.
type KRR struct {
	// Rho is the ridge regularization strength (rho in Eq. 5). Must be > 0.
	Rho float64
	// Kernel defaults to IdentityKernel when nil.
	Kernel Kernel
	// Mode selects the primal or dual solver; defaults to KRRModeAuto.
	Mode KRRMode

	// Trained state. In primal mode w holds the explicit weight vector; in
	// dual mode alpha holds the dual coefficients and support the training
	// rows.
	w       []float64
	alpha   []float64
	support [][]float64
	primal  bool
	dim     int
}

var _ BinaryClassifier = (*KRR)(nil)

// NewKRR returns a KRR classifier with the paper's configuration: identity
// kernel, automatic primal/dual selection, and the given ridge strength.
func NewKRR(rho float64) *KRR {
	return &KRR{Rho: rho, Kernel: IdentityKernel{}, Mode: KRRModeAuto}
}

func (k *KRR) kernel() Kernel {
	if k.Kernel == nil {
		return IdentityKernel{}
	}
	return k.Kernel
}

// Fit trains the classifier. It returns an error for degenerate training
// sets, non-positive Rho, or a primal-mode request with a non-identity
// kernel.
func (k *KRR) Fit(x [][]float64, y []bool) error {
	dim, err := checkTrainingSet(x, y)
	if err != nil {
		return err
	}
	if k.Rho <= 0 {
		return fmt.Errorf("%w: rho must be positive, got %g", ErrBadTrainingSet, k.Rho)
	}
	_, isIdentity := k.kernel().(IdentityKernel)
	mode := k.Mode
	if mode == 0 {
		mode = KRRModeAuto
	}
	if mode == KRRModePrimal && !isIdentity {
		return fmt.Errorf("%w: primal KRR requires the identity kernel", ErrBadTrainingSet)
	}
	usePrimal := mode == KRRModePrimal || (mode == KRRModeAuto && isIdentity && dim < len(x))

	targets := make([]float64, len(y))
	for i, label := range y {
		targets[i] = signLabel(label)
	}

	if usePrimal {
		return k.fitPrimal(x, targets, dim)
	}
	return k.fitDual(x, targets, dim)
}

// fitPrimal realizes Eq. 7: w* = (S + rho*I_M)^{-1} X y with S = X X^T,
// where X is the M x N matrix whose columns are training vectors. The
// linear system is SPD, so it is solved by Cholesky in O(M^3).
func (k *KRR) fitPrimal(x [][]float64, targets []float64, dim int) error {
	// S = sum_i x_i x_i^T, accumulated directly in M x M.
	s := linalg.NewMatrix(dim, dim)
	xy := make([]float64, dim)
	for i, row := range x {
		for a := 0; a < dim; a++ {
			va := row[a]
			xy[a] += va * targets[i]
			for b := a; b < dim; b++ {
				s.Set(a, b, s.At(a, b)+va*row[b])
			}
		}
	}
	for a := 0; a < dim; a++ {
		for b := 0; b < a; b++ {
			s.Set(a, b, s.At(b, a))
		}
	}
	shifted, err := s.AddDiagonal(k.Rho)
	if err != nil {
		return fmt.Errorf("ml: krr primal: %w", err)
	}
	w, err := linalg.SolveSPD(shifted, xy)
	if err != nil {
		return fmt.Errorf("ml: krr primal solve: %w", err)
	}
	k.w = w
	k.alpha = nil
	k.support = nil
	k.primal = true
	k.dim = dim
	return nil
}

// fitDual realizes Eq. 6: alpha = (K + rho*I_N)^{-1} y with K_ij =
// k(x_i, x_j), solved by Cholesky in O(N^3). The decision function is
// f(x) = sum_i alpha_i k(x_i, x).
func (k *KRR) fitDual(x [][]float64, targets []float64, dim int) error {
	n := len(x)
	km := linalg.NewMatrix(n, n)
	kern := k.kernel()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v, err := kern.Eval(x[i], x[j])
			if err != nil {
				return fmt.Errorf("ml: krr kernel: %w", err)
			}
			km.Set(i, j, v)
			km.Set(j, i, v)
		}
	}
	shifted, err := km.AddDiagonal(k.Rho)
	if err != nil {
		return fmt.Errorf("ml: krr dual: %w", err)
	}
	alpha, err := linalg.SolveSPD(shifted, targets)
	if err != nil {
		return fmt.Errorf("ml: krr dual solve: %w", err)
	}
	k.alpha = alpha
	k.support = make([][]float64, n)
	for i, row := range x {
		k.support[i] = append([]float64(nil), row...)
	}
	k.w = nil
	k.primal = false
	k.dim = dim
	return nil
}

// Score returns the regression value f(x); its sign is the predicted class
// and its magnitude is the Confidence Score of Section V-I.
func (k *KRR) Score(x []float64) (float64, error) {
	switch {
	case k.primal && k.w != nil:
		if len(x) != k.dim {
			return 0, fmt.Errorf("%w: feature length %d, model expects %d", ErrBadTrainingSet, len(x), k.dim)
		}
		return linalg.Dot(k.w, x)
	case !k.primal && k.alpha != nil:
		if len(x) != k.dim {
			return 0, fmt.Errorf("%w: feature length %d, model expects %d", ErrBadTrainingSet, len(x), k.dim)
		}
		kern := k.kernel()
		s := 0.0
		for i, sv := range k.support {
			v, err := kern.Eval(sv, x)
			if err != nil {
				return 0, err
			}
			s += k.alpha[i] * v
		}
		return s, nil
	default:
		return 0, ErrNotFitted
	}
}
