package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSPD builds a random symmetric positive-definite matrix A = B^T B + I.
func randSPD(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.data {
		b.data[i] = rng.NormFloat64()
	}
	spd := b.Gram()
	shifted, err := spd.AddDiagonal(1)
	if err != nil {
		panic(err)
	}
	return shifted
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 12; n++ {
		a := randSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d Cholesky: %v", n, err)
		}
		recon, err := l.Mul(l.T())
		if err != nil {
			t.Fatalf("Mul: %v", err)
		}
		if !recon.Equal(a, 1e-9) {
			t.Errorf("n=%d: L*L^T does not reconstruct A", n)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("indefinite matrix: err = %v, want ErrSingular", err)
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2, 3}})
	if _, err := Cholesky(a); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("non-square: err = %v, want ErrDimensionMismatch", err)
	}
}

func TestSolveSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randSPD(rng, 8)
	want := make([]float64, 8)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b, err := a.MulVec(want)
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	got, err := SolveSPD(a, b)
	if err != nil {
		t.Fatalf("SolveSPD: %v", err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("solution[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSolveGeneral(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{
		{0, 2, 1}, // zero pivot forces a row swap
		{1, 1, 1},
		{2, 0, 3},
	})
	want := []float64{1, -2, 3}
	b, _ := a.MulVec(want)
	got, err := Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("solution[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular: err = %v, want ErrSingular", err)
	}
}

func TestSolveRHSLength(t *testing.T) {
	a := Identity(3)
	if _, err := Solve(a, []float64{1}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("short rhs: err = %v, want ErrDimensionMismatch", err)
	}
}

func TestInverseIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randSPD(rng, n)
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		prod, err := a.Mul(inv)
		if err != nil {
			return false
		}
		return prod.Equal(Identity(n), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDet(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{2, 0}, {0, 3}})
	d, err := Det(a)
	if err != nil {
		t.Fatalf("Det: %v", err)
	}
	if math.Abs(d-6) > 1e-12 {
		t.Errorf("Det = %v, want 6", d)
	}
	// A row swap flips the sign bookkeeping but not the determinant value.
	b, _ := NewMatrixFromRows([][]float64{{0, 1}, {1, 0}})
	d, err = Det(b)
	if err != nil {
		t.Fatalf("Det: %v", err)
	}
	if math.Abs(d+1) > 1e-12 {
		t.Errorf("Det of permutation = %v, want -1", d)
	}
}

// Property: for SPD systems, SolveSPD and the general Solve agree.
func TestSolversAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1, err1 := SolveSPD(a, b)
		x2, err2 := Solve(a, b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVectorOps(t *testing.T) {
	d, err := Dot([]float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil || d != 32 {
		t.Errorf("Dot = %v, %v; want 32, nil", d, err)
	}
	if _, err := Dot([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Dot mismatched err = %v", err)
	}
	sq, err := SquaredDistance([]float64{0, 0}, []float64{3, 4})
	if err != nil || sq != 25 {
		t.Errorf("SquaredDistance = %v (err %v), want 25", sq, err)
	}
	if _, err := SquaredDistance([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("SquaredDistance mismatched err = %v", err)
	}
}
