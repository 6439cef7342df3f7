package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixFromRows(t *testing.T) {
	m, err := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("NewMatrixFromRows: %v", err)
	}
	if m.Rows() != 3 || m.cols != 2 {
		t.Fatalf("got shape %dx%d, want 3x2", m.Rows(), m.cols)
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", m.At(2, 1))
	}
}

func TestNewMatrixFromRowsRagged(t *testing.T) {
	_, err := NewMatrixFromRows([][]float64{{1, 2}, {3}})
	if !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("ragged rows: err = %v, want ErrDimensionMismatch", err)
	}
}

func TestNewMatrixFromRowsEmpty(t *testing.T) {
	if _, err := NewMatrixFromRows(nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("empty rows: err = %v, want ErrDimensionMismatch", err)
	}
}

func TestIdentityMul(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got, err := m.Mul(Identity(3))
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	if !got.Equal(m, 0) {
		t.Errorf("m*I != m:\n%v", got)
	}
}

func TestMulShapes(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewMatrixFromRows([][]float64{{5, 6, 7}, {8, 9, 10}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want, _ := NewMatrixFromRows([][]float64{{21, 24, 27}, {47, 54, 61}})
	if !c.Equal(want, 1e-12) {
		t.Errorf("product:\n%v\nwant:\n%v", c, want)
	}
	if _, err := b.Mul(a); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("incompatible Mul err = %v, want ErrDimensionMismatch", err)
	}
}

func TestTranspose(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tt := m.T()
	if tt.Rows() != 3 || tt.cols != 2 {
		t.Fatalf("transpose shape %dx%d, want 3x2", tt.Rows(), tt.cols)
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.cols; j++ {
			if m.At(i, j) != tt.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestAddSubScaleDiagonal(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewMatrixFromRows([][]float64{{10, 20}, {30, 40}})
	sum, err := a.Add(b)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if sum.At(1, 1) != 44 {
		t.Errorf("Add At(1,1) = %v, want 44", sum.At(1, 1))
	}
	diff, err := b.Sub(a)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	if diff.At(0, 0) != 9 {
		t.Errorf("Sub At(0,0) = %v, want 9", diff.At(0, 0))
	}
	if s := a.Scale(2); s.At(1, 0) != 6 {
		t.Errorf("Scale At(1,0) = %v, want 6", s.At(1, 0))
	}
	d, err := a.AddDiagonal(5)
	if err != nil {
		t.Fatalf("AddDiagonal: %v", err)
	}
	if d.At(0, 0) != 6 || d.At(1, 1) != 9 || d.At(0, 1) != 2 {
		t.Errorf("AddDiagonal produced wrong values: %v", d)
	}
	nonsquare, _ := NewMatrixFromRows([][]float64{{1, 2, 3}})
	if _, err := nonsquare.AddDiagonal(1); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("AddDiagonal nonsquare err = %v, want ErrDimensionMismatch", err)
	}
}

func TestMulVec(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v, err := m.MulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if v[0] != 6 || v[1] != 15 {
		t.Errorf("MulVec = %v, want [6 15]", v)
	}
	if _, err := m.MulVec([]float64{1}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("MulVec short vector err = %v, want ErrDimensionMismatch", err)
	}
	if err := m.MulVecInto(make([]float64, 1), []float64{1, 1, 1}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("MulVecInto short destination err = %v, want ErrDimensionMismatch", err)
	}
}

func TestGramMatchesExplicitProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(6, 4)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	gram := m.Gram()
	explicit, err := m.T().Mul(m)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	if !gram.Equal(explicit, 1e-12) {
		t.Errorf("Gram != T()*m")
	}
}

func TestRowColClone(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	cl := m.Clone()
	cl.Set(0, 0, -1)
	if m.At(0, 0) != 1 {
		t.Errorf("Clone aliases the matrix")
	}
}

// Property: (A^T)^T == A for random matrices.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMatrix(rows, cols)
		for i := range m.data {
			m.data[i] = rng.NormFloat64()
		}
		return m.T().T().Equal(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: matrix multiplication is associative: (AB)C == A(BC).
func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1, n2, n3, n4 := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		randM := func(r, c int) *Matrix {
			m := NewMatrix(r, c)
			for i := range m.data {
				m.data[i] = rng.NormFloat64()
			}
			return m
		}
		a, b, c := randM(n1, n2), randM(n2, n3), randM(n3, n4)
		ab, _ := a.Mul(b)
		abc1, _ := ab.Mul(c)
		bc, _ := b.Mul(c)
		abc2, _ := a.Mul(bc)
		return abc1.Equal(abc2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStringRenders(t *testing.T) {
	m := Identity(2)
	if s := m.String(); len(s) == 0 || math.IsNaN(float64(len(s))) {
		t.Errorf("String returned empty output")
	}
}
