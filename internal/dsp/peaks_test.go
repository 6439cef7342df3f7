package dsp

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// peaksOracle is the spectrum path PeaksInto replaces: the whole
// amplitude spectrum, then the peak rule over it.
func peaksOracle(t testing.TB, x []float64, rate float64) SpectralPeaks {
	t.Helper()
	spec, err := AmplitudeSpectrum(x, rate)
	if err != nil {
		t.Fatalf("n=%d: AmplitudeSpectrum: %v", len(x), err)
	}
	return spec.Peaks()
}

// sameBits reports whether two peak sets are equal bit for bit, NaNs
// included.
func sameBits(a, b SpectralPeaks) bool {
	return math.Float64bits(a.Peak) == math.Float64bits(b.Peak) &&
		math.Float64bits(a.PeakF) == math.Float64bits(b.PeakF) &&
		math.Float64bits(a.Peak2) == math.Float64bits(b.Peak2) &&
		math.Float64bits(a.Peak2F) == math.Float64bits(b.Peak2F)
}

// peakSignals returns windows of length n that stress the peak search:
// noise, zeros, a constant, one NaN or ±Inf sample, noise at 1e±200,
// exactly tied cosines, and a staircase whose spectrum has many ties.
func peakSignals(rng *rand.Rand, n int) [][]float64 {
	noise := func(scale float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = scale * rng.NormFloat64()
		}
		return x
	}
	with := func(v float64) []float64 {
		x := noise(1)
		x[rng.Intn(n)] = v
		return x
	}
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 9.81
	}
	// Two cosines of one amplitude, on bins at least two apart when the
	// length has room: their peaks tie up to rounding.
	tied := make([]float64, n)
	f1, f2 := 1, 1+min(3, n/2)
	for i := range tied {
		tied[i] = math.Cos(2*math.Pi*float64(f1*i)/float64(n)) + math.Cos(2*math.Pi*float64(f2*i)/float64(n))
	}
	stairs := make([]float64, n)
	for i := range stairs {
		stairs[i] = float64(i % 4)
	}
	return [][]float64{
		noise(1), noise(1e200), noise(1e-200), noise(1e300),
		make([]float64, n), constant, tied, stairs,
		with(math.NaN()), with(math.Inf(1)), with(math.Inf(-1)),
	}
}

// TestPeaksIntoMatchesSpectrum checks PeaksInto against the spectrum and
// the peak rule it replaces, bit for bit, on every pipeline length (the
// Fig. 4 windows, Bluestein and odd lengths among them), alone and
// batched.
func TestPeaksIntoMatchesSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lengths := append(pipelineLengths(), 1, 2, 3, 4, 5, 9, 349, 351, 599, 749)
	for _, n := range lengths {
		p, err := PlanFor(n)
		if err != nil {
			t.Fatalf("n=%d: PlanFor: %v", n, err)
		}
		signals := peakSignals(rng, n)
		want := make([]SpectralPeaks, len(signals))
		batch := make([]float64, 0, len(signals)*n)
		for j, x := range signals {
			want[j] = peaksOracle(t, x, 50)
			var one [1]SpectralPeaks
			if err := p.PeaksInto(one[:], x, 50); err != nil {
				t.Fatalf("n=%d: PeaksInto: %v", n, err)
			}
			if !sameBits(one[0], want[j]) {
				t.Errorf("n=%d signal %d: PeaksInto = %+v, spectrum gives %+v", n, j, one[0], want[j])
			}
			batch = append(batch, x...)
		}
		got := make([]SpectralPeaks, len(signals))
		if err := p.PeaksInto(got, batch, 50); err != nil {
			t.Fatalf("n=%d: batched PeaksInto: %v", n, err)
		}
		for j := range got {
			if !sameBits(got[j], want[j]) {
				t.Errorf("n=%d signal %d of a batch: %+v, spectrum gives %+v", n, j, got[j], want[j])
			}
		}
	}
}

// TestPeakSearchPathsAgree runs both searches of peaks on the same bins:
// the one from the five largest keys, where it settles the window, and
// the exact scan. They must agree, and the first must settle noise.
func TestPeakSearchPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	settled := 0
	for iter := 0; iter < 400; iter++ {
		n := 8 + rng.Intn(800)
		p, err := PlanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() + math.Sin(float64(i)*0.3)
		}
		sc := p.getScratch(1)
		z := p.bins(x, 1, sc)
		want := p.scanPeaks(z, 1, 50)
		top := topKeys{key: [5]float64{-1, -1, -1, -1, -1}}
		for k := 1; k <= n/2; k++ {
			key := real(z[k])*real(z[k]) + imag(z[k])*imag(z[k])
			if n%2 == 0 && k == n/2 {
				key *= 0.25
			}
			if key > top.key[4] {
				top.add(key, k)
			}
		}
		if got, ok := p.peaksFromTop(z, 1, &top, 50); ok {
			settled++
			if !sameBits(got, want) {
				t.Errorf("n=%d: from the top keys %+v, exact scan %+v", n, got, want)
			}
		}
		if got := p.peaks(z, 1, 50); !sameBits(got, want) {
			t.Errorf("n=%d: peaks %+v, exact scan %+v", n, got, want)
		}
		p.scratch.Put(sc)
	}
	if settled != 400 {
		t.Errorf("the top keys settled %d of 400 noise windows", settled)
	}
}

// TestSampleRateMustBeFinite refuses a zero, negative, NaN or infinite
// sample rate on both spectral entries.
func TestSampleRateMustBeFinite(t *testing.T) {
	p, err := PlanFor(8)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 8)
	for _, c := range []struct {
		rate float64
		ok   bool
	}{
		{50, true},
		{1e-300, true},
		{math.MaxFloat64, true},
		{0, false},
		{-50, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	} {
		var peaks [1]SpectralPeaks
		if err := p.PeaksInto(peaks[:], x, c.rate); (err == nil) != c.ok {
			t.Errorf("PeaksInto at rate %g: err = %v, want ok = %v", c.rate, err, c.ok)
		}
		if err := p.AmplitudeSpectrumInto(&Spectrum{}, x, c.rate); (err == nil) != c.ok {
			t.Errorf("AmplitudeSpectrumInto at rate %g: err = %v, want ok = %v", c.rate, err, c.ok)
		}
	}
	var peaks [2]SpectralPeaks
	if err := p.PeaksInto(peaks[:], x, 50); err == nil {
		t.Error("PeaksInto of two signals from one signal's samples should fail")
	}
}

// TestStatsDetrendMatchesStatsAndDetrend checks the fused pass against
// the two functions it fuses, bit for bit.
func TestStatsDetrendMatchesStatsAndDetrend(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 3, 50, 300, 301, 800} {
		for _, x := range peakSignals(rng, n) {
			want, err := Stats(x)
			if err != nil {
				t.Fatal(err)
			}
			wantD := Detrend(x)
			dst := make([]float64, n+3)
			got, err := StatsDetrend(dst, x)
			if err != nil {
				t.Fatal(err)
			}
			for _, pair := range [][2]float64{{got.Mean, want.Mean}, {got.Var, want.Var}, {got.Max, want.Max}, {got.Min, want.Min}, {got.Ran, want.Ran}} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("n=%d: StatsDetrend %+v, Stats %+v", n, got, want)
				}
			}
			for i := range wantD {
				if math.Float64bits(dst[i]) != math.Float64bits(wantD[i]) {
					t.Fatalf("n=%d sample %d: detrended %g, Detrend %g", n, i, dst[i], wantD[i])
				}
			}
		}
	}
	if _, err := StatsDetrend(nil, nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("StatsDetrend of nothing: err = %v, want ErrEmptyInput", err)
	}
}

// TestEngineCounts pins what the counters count: one engine call per
// PeaksInto or AmplitudeSpectrumInto, however many signals it carries,
// and one Bluestein plan per plan built for a length that is not
// 5-smooth.
func TestEngineCounts(t *testing.T) {
	p, err := PlanFor(300)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2*300)
	var peaks [2]SpectralPeaks
	calls0, plans0 := Counts()
	if err := p.PeaksInto(peaks[:], x, 50); err != nil {
		t.Fatal(err)
	}
	if err := p.AmplitudeSpectrumInto(&Spectrum{}, x[:300], 50); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFFTPlan(7); err != nil {
		t.Fatal(err)
	}
	calls1, plans1 := Counts()
	// No test of the package runs in parallel with another, so the
	// deltas are exact.
	if calls1-calls0 != 2 || plans1-plans0 != 1 {
		t.Errorf("counted %d engine calls and %d Bluestein plans, want 2 and 1", calls1-calls0, plans1-plans0)
	}
}

// TestPeaksIntoConcurrentSharing hammers shared plans with batched and
// single peak searches from many goroutines, on both engines (350 runs
// Bluestein at half length): each must equal the oracle computed up
// front. The -race companion of the batched entry.
func TestPeaksIntoConcurrentSharing(t *testing.T) {
	lengths := []int{50, 300, 350, 351, 800}
	rng := rand.New(rand.NewSource(24))
	type job struct {
		x    []float64 // two signals back to back
		want [2]SpectralPeaks
	}
	var jobs []job
	for _, n := range lengths {
		for k := 0; k < 4; k++ {
			x := make([]float64, 2*n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			jobs = append(jobs, job{x, [2]SpectralPeaks{peaksOracle(t, x[:n], 50), peaksOracle(t, x[n:], 50)}})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 40; iter++ {
				jb := jobs[(g+iter)%len(jobs)]
				n := len(jb.x) / 2
				p, err := PlanFor(n)
				if err != nil {
					t.Errorf("PlanFor(%d): %v", n, err)
					return
				}
				var got [2]SpectralPeaks
				if err := p.PeaksInto(got[:(iter%2)+1], jb.x[:((iter%2)+1)*n], 50); err != nil {
					t.Errorf("n=%d: %v", n, err)
					return
				}
				for j := 0; j <= iter%2; j++ {
					if !sameBits(got[j], jb.want[j]) {
						t.Errorf("n=%d signal %d: concurrent result %+v, want %+v", n, j, got[j], jb.want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzPeaksMatchSpectrum reads the input as little-endian float64
// samples, any bit pattern included, and checks PeaksInto against the
// spectrum and the peak rule bit for bit, alone and batched with the
// samples reversed.
func FuzzPeaksMatchSpectrum(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, v := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 2, 3, 4, 5, 6))
	f.Add(seed(0, 0, 0, 0, 0, 0, 0))
	f.Add(seed(1, 0, -1, 0, 1, 0, -1, 0))
	f.Add(seed(1, -1, 1, -1, 1, -1, 1, -1, 1, -1))
	f.Add(seed(math.NaN(), 1, 2, 3, 4))
	f.Add(seed(math.Inf(1), 1, 2, 3, 4, 5))
	f.Add(seed(1e200, -1e200, 3e199, 1, 2))
	f.Add(seed(1e-300, 2e-300, -1e-300, 5e-324, 0, 7e-310))
	f.Add(seed(9.8, 9.8, 9.8, 9.81, 9.8, 9.8, 9.8))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n == 0 || n > 4096 {
			return
		}
		x := make([]float64, 2*n)
		for i := 0; i < n; i++ {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			x[2*n-1-i] = x[i]
		}
		p, err := PlanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		var got [2]SpectralPeaks
		if err := p.PeaksInto(got[:1], x[:n], 50); err != nil {
			t.Fatal(err)
		}
		want := peaksOracle(t, x[:n], 50)
		if !sameBits(got[0], want) {
			t.Fatalf("n=%d: PeaksInto %+v, spectrum gives %+v", n, got[0], want)
		}
		if err := p.PeaksInto(got[:], x, 50); err != nil {
			t.Fatal(err)
		}
		if want2 := peaksOracle(t, x[n:], 50); !sameBits(got[0], want) || !sameBits(got[1], want2) {
			t.Fatalf("n=%d: batched PeaksInto %+v, spectrum gives %+v and %+v", n, got, want, want2)
		}
	})
}
