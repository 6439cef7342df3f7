package features

import (
	"math"
	"math/rand"
	"testing"

	"smarteryou/internal/dsp"
	"smarteryou/internal/sensing"
)

// ExtractSensor computes the nine candidate statistics of one magnitude
// window: the batch-of-one path of ExtractWindows.
func (e *Extractor) ExtractSensor(window []float64, rate float64) (SensorFeatures, error) {
	var out [1]SensorFeatures
	err := e.extract(out[:], [][]float64{window}, rate)
	return out[0], err
}

// referenceSensor is the per-window pipeline over whole spectra, built
// from the dsp entries alone: Stats, Detrend, the amplitude spectrum,
// then the first-index peak rule over it.
func referenceSensor(t *testing.T, w []float64, rate float64) SensorFeatures {
	t.Helper()
	ts, err := dsp.Stats(w)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	p, err := dsp.PlanFor(len(w))
	if err != nil {
		t.Fatalf("PlanFor: %v", err)
	}
	var spec dsp.Spectrum
	if err := p.AmplitudeSpectrumInto(&spec, dsp.Detrend(w), rate); err != nil {
		t.Fatalf("AmplitudeSpectrumInto: %v", err)
	}
	f := SensorFeatures{Mean: ts.Mean, Var: ts.Var, Max: ts.Max, Min: ts.Min, Ran: ts.Ran}
	amp := spec.Amplitudes
	best := -1
	for k := 1; k < len(amp); k++ {
		if best == -1 || amp[k] > amp[best] {
			best = k
		}
	}
	if best == -1 {
		return f
	}
	f.Peak, f.PeakF = amp[best], spec.Frequencies[best]
	second := -1
	for k := 1; k < len(amp); k++ {
		if k >= best-1 && k <= best+1 {
			continue
		}
		if second == -1 || amp[k] > amp[second] {
			second = k
		}
	}
	if second != -1 {
		f.Peak2, f.Peak2F = amp[second], spec.Frequencies[second]
	}
	return f
}

// sameFeatureBits compares all nine features bit for bit, NaNs included.
func sameFeatureBits(a, b SensorFeatures) bool {
	x, y := a.All(), b.All()
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestExtractWindowsMatchesReference checks ExtractWindows, which batches
// both sensors of a window through one engine call, against the
// reference pipeline bit for bit: every Fig. 4 window (1..16 s at 50 Hz,
// 350 samples and up run Bluestein at half length) and odd lengths.
func TestExtractWindowsMatchesReference(t *testing.T) {
	u := newTestUser(3)
	stream, err := sensing.Session{User: u, Context: sensing.ContextMovingUse, Seconds: 40, Seed: 9}.Generate(sensing.DevicePhone)
	if err != nil {
		t.Fatal(err)
	}
	acc := make([]float64, len(stream.Samples))
	gyr := make([]float64, len(stream.Samples))
	for i, smp := range stream.Samples {
		acc[i] = dsp.Magnitude(smp.Acc.X, smp.Acc.Y, smp.Acc.Z)
		gyr[i] = dsp.Magnitude(smp.Gyr.X, smp.Gyr.Y, smp.Gyr.Z)
	}
	ex := NewExtractor()
	for _, seconds := range []float64{1, 2, 3, 3.3, 4, 5, 5.02, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16} {
		wins, err := ex.ExtractWindows(stream, seconds)
		if err != nil {
			t.Fatalf("%g s: %v", seconds, err)
		}
		size := int(seconds * stream.Rate)
		if len(wins) != len(acc)/size {
			t.Fatalf("%g s: %d windows, want %d", seconds, len(wins), len(acc)/size)
		}
		for i, w := range wins {
			lo, hi := i*size, (i+1)*size
			if want := referenceSensor(t, acc[lo:hi], stream.Rate); !sameFeatureBits(w.Acc, want) {
				t.Errorf("%g s window %d acc: %+v, reference %+v", seconds, i, w.Acc, want)
			}
			if want := referenceSensor(t, gyr[lo:hi], stream.Rate); !sameFeatureBits(w.Gyr, want) {
				t.Errorf("%g s window %d gyr: %+v, reference %+v", seconds, i, w.Gyr, want)
			}
		}
	}
}

// TestExtractSensorMatchesReference checks the batch-of-one path against
// the reference bit for bit on random streams of 50..800 samples and on
// windows that are zero, constant, non-finite, at 1e±200, or whose
// spectrum has exactly tied peaks.
func TestExtractSensorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ex := NewExtractor()
	check := func(w []float64, rate float64) {
		t.Helper()
		got, err := ex.ExtractSensor(w, rate)
		if err != nil {
			t.Fatalf("n=%d: ExtractSensor: %v", len(w), err)
		}
		if want := referenceSensor(t, w, rate); !sameFeatureBits(got, want) {
			t.Errorf("n=%d: %+v, reference %+v", len(w), got, want)
		}
	}
	for iter := 0; iter < 300; iter++ {
		n := 50 + rng.Intn(751)
		w := make([]float64, n)
		for i := range w {
			w[i] = 9.81 + rng.NormFloat64()
		}
		check(w, 1+99*rng.Float64())
	}
	for _, n := range []int{1, 2, 3, 50, 299, 300, 350, 351, 800} {
		for _, v := range []float64{0, 9.81, math.NaN(), math.Inf(1), math.Inf(-1), 1e200, 1e-200} {
			constant := make([]float64, n)
			for i := range constant {
				constant[i] = v
			}
			check(constant, 50)
			noisy := make([]float64, n)
			for i := range noisy {
				noisy[i] = rng.NormFloat64()
			}
			noisy[rng.Intn(n)] = v
			check(noisy, 50)
			for i := range noisy {
				noisy[i] = v * rng.NormFloat64()
			}
			check(noisy, 50)
		}
		// Equal cosines two or more bins apart: the peaks tie.
		tied := make([]float64, n)
		for i := range tied {
			tied[i] = math.Cos(2*math.Pi*float64(i)/float64(n)) + math.Cos(2*math.Pi*float64(4*i)/float64(n))
		}
		check(tied, 50)
	}
}

// TestSampleRateRefused refuses a stream or window whose sample rate is
// zero, negative, NaN or infinite.
func TestSampleRateRefused(t *testing.T) {
	u := newTestUser(4)
	stream, err := sensing.Session{User: u, Context: sensing.ContextMovingUse, Seconds: 12, Seed: 5}.Generate(sensing.DevicePhone)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 300)
	for i := range w {
		w[i] = math.Sin(float64(i))
	}
	for _, rate := range []float64{0, -50, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewExtractor().ExtractSensor(w, rate); err == nil {
			t.Errorf("ExtractSensor at %g Hz: no error", rate)
		}
		bad := &sensing.Stream{Rate: rate, Samples: stream.Samples}
		if _, err := ExtractWindows(bad, 6); err == nil {
			t.Errorf("ExtractWindows at %g Hz: no error", rate)
		}
	}
}
