package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(x); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Errorf("empty Mean/Variance should be NaN")
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if r := Pearson(x, y); math.Abs(r-1) > 1e-12 {
		t.Errorf("Pearson = %v, want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	if r := Pearson(x, neg); math.Abs(r+1) > 1e-12 {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Errorf("constant x: Pearson = %v, want 0", r)
	}
	if r := Pearson([]float64{1}, []float64{1}); r != 0 {
		t.Errorf("short input: Pearson = %v, want 0", r)
	}
	if r := Pearson([]float64{1, 2}, []float64{1, 2, 3}); r != 0 {
		t.Errorf("mismatched input: Pearson = %v, want 0", r)
	}
}

// Property: Pearson is symmetric and bounded in [-1, 1]; invariant to
// positive affine transforms.
func TestPearsonProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r := Pearson(x, y)
		if r < -1-1e-12 || r > 1+1e-12 {
			return false
		}
		if math.Abs(r-Pearson(y, x)) > 1e-12 {
			return false
		}
		// Affine transform of x with positive scale preserves r.
		ax := make([]float64, n)
		scale := 0.5 + rng.Float64()*3
		shift := rng.NormFloat64() * 5
		for i := range x {
			ax[i] = scale*x[i] + shift
		}
		return math.Abs(r-Pearson(ax, y)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFisherScoreSeparatedClasses(t *testing.T) {
	tight := map[string][]float64{
		"a": {0, 0.1, -0.1, 0.05},
		"b": {5, 5.1, 4.9, 5.05},
	}
	fsTight, err := FisherScore(tight)
	if err != nil {
		t.Fatalf("FisherScore: %v", err)
	}
	overlapping := map[string][]float64{
		"a": {0, 1, -1, 0.5},
		"b": {0.2, 0.9, -0.8, 0.1},
	}
	fsOverlap, err := FisherScore(overlapping)
	if err != nil {
		t.Fatalf("FisherScore: %v", err)
	}
	if fsTight <= fsOverlap {
		t.Errorf("separated classes FS (%v) should exceed overlapping FS (%v)", fsTight, fsOverlap)
	}
	if fsTight < 100 {
		t.Errorf("well-separated FS = %v, expected large", fsTight)
	}
}

// TestFisherScoreIsBitReproducible: Table II's scores must not depend on
// the order a map hands out its classes.
func TestFisherScoreIsBitReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	classes := map[string][]float64{}
	for c := 0; c < 20; c++ {
		obs := make([]float64, 7)
		for i := range obs {
			obs[i] = float64(c)*0.1 + rng.NormFloat64()
		}
		classes[string(rune('a'+c))] = obs
	}
	first, err := FisherScore(classes)
	if err != nil {
		t.Fatalf("FisherScore: %v", err)
	}
	for i := 0; i < 20; i++ {
		if got, _ := FisherScore(classes); got != first {
			t.Fatalf("call %d gave %v, first gave %v", i+2, got, first)
		}
	}
}

func TestFisherScoreErrors(t *testing.T) {
	if _, err := FisherScore(map[string][]float64{"a": {1}}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("single class err = %v, want ErrInsufficientData", err)
	}
	if _, err := FisherScore(map[string][]float64{"a": {1}, "b": nil}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("empty class err = %v, want ErrInsufficientData", err)
	}
}

func TestFisherScoreZeroWithin(t *testing.T) {
	fs, err := FisherScore(map[string][]float64{"a": {1, 1}, "b": {2, 2}})
	if err != nil {
		t.Fatalf("FisherScore: %v", err)
	}
	if !math.IsInf(fs, 1) {
		t.Errorf("zero within-class variance FS = %v, want +Inf", fs)
	}
}

func TestStandardizer(t *testing.T) {
	x := [][]float64{{1, 10}, {3, 30}, {5, 50}}
	s, err := FitStandardizer(x)
	if err != nil {
		t.Fatalf("FitStandardizer: %v", err)
	}
	// Transform standardizes a copy; TransformAll standardizes in place.
	first := s.Transform(x[0])
	if &first[0] == &x[0][0] || x[0][0] != 1 {
		t.Errorf("Transform wrote into its input")
	}
	out := s.TransformAll(x)
	for i := range x {
		if &out[i][0] != &x[i][0] {
			t.Errorf("TransformAll row %d is not its input row", i)
		}
	}
	if out[0][0] != first[0] || out[0][1] != first[1] {
		t.Errorf("TransformAll row 0 = %v, Transform gave %v", out[0], first)
	}
	// Each column must have mean 0 and variance 1 after transform.
	for j := 0; j < 2; j++ {
		col := []float64{out[0][j], out[1][j], out[2][j]}
		if m := Mean(col); math.Abs(m) > 1e-12 {
			t.Errorf("column %d mean = %v, want 0", j, m)
		}
		if v := Variance(col); math.Abs(v-1) > 1e-12 {
			t.Errorf("column %d variance = %v, want 1", j, v)
		}
	}
}

func TestStandardizerConstantColumn(t *testing.T) {
	x := [][]float64{{7, 1}, {7, 2}, {7, 3}}
	s, err := FitStandardizer(x)
	if err != nil {
		t.Fatalf("FitStandardizer: %v", err)
	}
	v := s.Transform([]float64{7, 2})
	if v[0] != 0 {
		t.Errorf("constant column transform = %v, want 0", v[0])
	}
}

func TestStandardizerEmpty(t *testing.T) {
	if _, err := FitStandardizer(nil); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("FitStandardizer(nil) err = %v", err)
	}
}
