package dsp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMagnitude(t *testing.T) {
	if got := Magnitude(3, 4, 0); got != 5 {
		t.Errorf("Magnitude(3,4,0) = %v, want 5", got)
	}
	if got := Magnitude(1, 2, 2); got != 3 {
		t.Errorf("Magnitude(1,2,2) = %v, want 3", got)
	}
}

func TestMagnitudeSeries(t *testing.T) {
	m, err := MagnitudeSeries([]float64{3, 0}, []float64{4, 0}, []float64{0, 2})
	if err != nil {
		t.Fatalf("MagnitudeSeries: %v", err)
	}
	if m[0] != 5 || m[1] != 2 {
		t.Errorf("MagnitudeSeries = %v, want [5 2]", m)
	}
	if _, err := MagnitudeSeries([]float64{1}, []float64{1, 2}, []float64{1}); err == nil {
		t.Errorf("mismatched axes should error")
	}
}

func TestWindows(t *testing.T) {
	stream := []float64{1, 2, 3, 4, 5, 6, 7}
	w, err := Windows(stream, 3)
	if err != nil {
		t.Fatalf("Windows: %v", err)
	}
	if len(w) != 2 {
		t.Fatalf("got %d windows, want 2 (trailing partial dropped)", len(w))
	}
	if w[1][0] != 4 {
		t.Errorf("second window starts at %v, want 4", w[1][0])
	}
	if _, err := Windows(stream, 0); err == nil {
		t.Errorf("zero window size should error")
	}
}

func TestStats(t *testing.T) {
	s, err := Stats([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if s.Mean != 2.5 {
		t.Errorf("Mean = %v, want 2.5", s.Mean)
	}
	if math.Abs(s.Var-1.25) > 1e-12 {
		t.Errorf("Var = %v, want 1.25", s.Var)
	}
	if s.Max != 4 || s.Min != 1 || s.Ran != 3 {
		t.Errorf("Max/Min/Ran = %v/%v/%v, want 4/1/3", s.Max, s.Min, s.Ran)
	}
	if _, err := Stats(nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("Stats(nil) err = %v, want ErrEmptyInput", err)
	}
}

// Property: Min <= Mean <= Max and Var >= 0 and Ran == Max-Min.
func TestStatsInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, 1+rng.Intn(200))
		for i := range w {
			w[i] = rng.NormFloat64() * 10
		}
		s, err := Stats(w)
		if err != nil {
			return false
		}
		return s.Min <= s.Mean+1e-12 && s.Mean <= s.Max+1e-12 &&
			s.Var >= 0 && math.Abs(s.Ran-(s.Max-s.Min)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: windows partition the prefix of the stream exactly.
func TestWindowsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stream := make([]float64, rng.Intn(300))
		for i := range stream {
			stream[i] = rng.Float64()
		}
		size := 1 + rng.Intn(20)
		ws, err := Windows(stream, size)
		if err != nil {
			return false
		}
		if len(ws) != len(stream)/size {
			return false
		}
		idx := 0
		for _, w := range ws {
			if len(w) != size {
				return false
			}
			for _, v := range w {
				if v != stream[idx] {
					return false
				}
				idx++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestDetrend(t *testing.T) {
	d := Detrend([]float64{1, 2, 3})
	sum := d[0] + d[1] + d[2]
	if math.Abs(sum) > 1e-12 {
		t.Errorf("detrended sum = %v, want 0", sum)
	}
	if Detrend(nil) != nil {
		t.Errorf("Detrend(nil) should be nil")
	}
}
