package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// pipelineLengths is every window length the authentication pipeline can
// produce (50 Hz x 1..16 s) and every 5-smooth length up to 1024. The
// 5-smooth ones run the mixed-radix engine; the primes 7, 31 and 101, 299
// = 13·23 and the windows 50 x 7, 11, 13, 14 run Bluestein.
func pipelineLengths() []int {
	lengths := []int{7, 31, 101, 299, 50 * 7, 50 * 11, 50 * 13, 50 * 14}
	for n := 1; n <= 1024; n++ {
		if _, smooth := factor(n); smooth {
			lengths = append(lengths, n)
		}
	}
	return lengths
}

func maxRelErr(got, want []complex128) float64 {
	scale := 0.0
	for _, w := range want {
		if a := cmplx.Abs(w); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	worst := 0.0
	for i := range want {
		if d := cmplx.Abs(got[i]-want[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// TestPlanMatchesNaiveDFT is the property test of the plan's forward
// transform: for every pipeline window length, planned output must match
// the textbook DFT definition.
func TestPlanMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range pipelineLengths() {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got, err := FFT(x)
		if err != nil {
			t.Fatalf("n=%d: FFT: %v", n, err)
		}
		want := naiveDFT(x)
		if e := maxRelErr(got, want); e > 1e-10 {
			t.Errorf("n=%d: forward transform deviates from naive DFT by %g", n, e)
		}
		back, err := IFFT(got)
		if err != nil {
			t.Fatalf("n=%d: IFFT: %v", n, err)
		}
		if e := maxRelErr(back, x); e > 1e-10 {
			t.Errorf("n=%d: IFFT(FFT(x)) deviates from x by %g", n, e)
		}
	}
}

// TestRealTransformMatchesComplex checks the conjugate-symmetry path: the
// packed real transform must agree with the full complex transform on the
// non-redundant half of the spectrum, for even (packed) and odd
// (fallback) lengths alike.
func TestRealTransformMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range pipelineLengths() {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		p, err := PlanFor(n)
		if err != nil {
			t.Fatalf("n=%d: PlanFor: %v", n, err)
		}
		sc := p.scratch.Get().(*fftScratch)
		got := append([]complex128(nil), p.bins(x, 1, sc)...)
		p.scratch.Put(sc)
		full, err := FFTReal(x)
		if err != nil {
			t.Fatalf("n=%d: FFTReal: %v", n, err)
		}
		if e := maxRelErr(got, full[:n/2+1]); e > 1e-10 {
			t.Errorf("n=%d: real transform deviates from complex reference by %g", n, e)
		}
	}
}

// TestAmplitudeSpectrumIntoMatchesNaiveDFT checks the spectrum the feature
// pipeline reads against its definition: 2|DFT_k|/n, with the DC bin (and
// the Nyquist bin of an even length) at |DFT_k|/n, for odd and even lengths
// on both engines.
func TestAmplitudeSpectrumIntoMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var spec Spectrum
	for _, n := range pipelineLengths() {
		x := make([]float64, n)
		c := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			c[i] = complex(x[i], 0)
		}
		p, err := PlanFor(n)
		if err != nil {
			t.Fatalf("n=%d: PlanFor: %v", n, err)
		}
		if err := p.AmplitudeSpectrumInto(&spec, x, 50); err != nil {
			t.Fatalf("n=%d: AmplitudeSpectrumInto: %v", n, err)
		}
		dft := naiveDFT(c)
		want := make([]float64, n/2+1)
		peak := 0.0
		for k := range want {
			want[k] = cmplx.Abs(dft[k]) / float64(n)
			if k != 0 && 2*k != n {
				want[k] *= 2
			}
			peak = math.Max(peak, want[k])
		}
		if len(spec.Amplitudes) != len(want) {
			t.Fatalf("n=%d: got %d bins, want %d", n, len(spec.Amplitudes), len(want))
		}
		for k, w := range want {
			if d := math.Abs(spec.Amplitudes[k]-w) / peak; d > 1e-12 {
				t.Errorf("n=%d bin %d: amplitude %g, want %g (relative error %g)", n, k, spec.Amplitudes[k], w, d)
				break
			}
		}
	}
}

// TestPipelineWindowsSkipBluestein pins the point of the mixed-radix
// engine: every window length of the Fig. 4 sweep (experiments'
// Figure4Windows, 1..16 s at 50 Hz) is 5-smooth, so neither its plan nor
// the half-length plan its real-input path runs builds Bluestein tables.
func TestPipelineWindowsSkipBluestein(t *testing.T) {
	for _, s := range []int{1, 2, 4, 6, 8, 12, 16} {
		n := 50 * s
		p, err := PlanFor(n)
		if err != nil {
			t.Fatalf("n=%d: PlanFor: %v", n, err)
		}
		for _, q := range []*FFTPlan{p, p.half} {
			if q.sub != nil || q.chirp != nil || q.bhat != nil {
				t.Errorf("n=%d: plan of length %d builds Bluestein tables", n, q.n)
			}
		}
	}
}

// TestAmplitudeSpectrumIntoReuse checks the Into variant gives the same
// spectrum as the allocating API while reusing the caller's buffers.
func TestAmplitudeSpectrumIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var reused Spectrum
	for _, n := range []int{300, 256, 750} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want, err := AmplitudeSpectrum(x, 50)
		if err != nil {
			t.Fatalf("n=%d: AmplitudeSpectrum: %v", n, err)
		}
		p, err := PlanFor(n)
		if err != nil {
			t.Fatalf("n=%d: PlanFor: %v", n, err)
		}
		if err := p.AmplitudeSpectrumInto(&reused, x, 50); err != nil {
			t.Fatalf("n=%d: AmplitudeSpectrumInto: %v", n, err)
		}
		if len(reused.Amplitudes) != len(want.Amplitudes) {
			t.Fatalf("n=%d: got %d bins, want %d", n, len(reused.Amplitudes), len(want.Amplitudes))
		}
		for k := range want.Amplitudes {
			if reused.Amplitudes[k] != want.Amplitudes[k] {
				t.Fatalf("n=%d bin %d: amplitude %g != %g", n, k, reused.Amplitudes[k], want.Amplitudes[k])
			}
			if reused.Frequencies[k] != want.Frequencies[k] {
				t.Fatalf("n=%d bin %d: frequency %g != %g", n, k, reused.Frequencies[k], want.Frequencies[k])
			}
		}
	}
}

// TestAmplitudeSpectrumIntoAllocFree asserts the per-window hot path does
// not allocate once the plan and output buffers are warm, on the
// mixed-radix engine (300) and through Bluestein (350).
func TestAmplitudeSpectrumIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{300, 350} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		p, err := PlanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		var spec Spectrum
		if err := p.AmplitudeSpectrumInto(&spec, x, 50); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := p.AmplitudeSpectrumInto(&spec, x, 50); err != nil {
				t.Fatal(err)
			}
		})
		// The scratch pool may be emptied by a GC between runs; allow a
		// small slack rather than demanding literally zero under test
		// instrumentation.
		if allocs > 1 {
			t.Fatalf("n=%d: AmplitudeSpectrumInto allocates %.1f times per call on the warm path", n, allocs)
		}
	}
}

// TestPlanConcurrentSharing hammers one shared plan table from many
// goroutines across mixed lengths, on both engines (350 runs Bluestein) —
// the -race companion to the plan cache's immutability claim.
func TestPlanConcurrentSharing(t *testing.T) {
	lengths := []int{50, 300, 256, 350, 750, 800}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var spec Spectrum
			for iter := 0; iter < 40; iter++ {
				n := lengths[iter%len(lengths)]
				x := make([]float64, n)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				p, err := PlanFor(n)
				if err != nil {
					t.Errorf("PlanFor(%d): %v", n, err)
					return
				}
				if err := p.AmplitudeSpectrumInto(&spec, x, 50); err != nil {
					t.Errorf("n=%d: %v", n, err)
					return
				}
				want, err := AmplitudeSpectrum(x, 50)
				if err != nil {
					t.Errorf("n=%d: %v", n, err)
					return
				}
				for k := range want.Amplitudes {
					if spec.Amplitudes[k] != want.Amplitudes[k] {
						t.Errorf("n=%d bin %d: concurrent result diverged", n, k)
						return
					}
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
}

func TestPlanInvalidInputs(t *testing.T) {
	if _, err := PlanFor(0); err == nil {
		t.Error("PlanFor(0) should fail")
	}
	p, err := PlanFor(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AmplitudeSpectrumInto(&Spectrum{}, make([]float64, 4), 50); err == nil {
		t.Error("length-mismatched AmplitudeSpectrumInto should fail")
	}
	if err := p.AmplitudeSpectrumInto(&Spectrum{}, make([]float64, 8), 0); err == nil {
		t.Error("non-positive sample rate should fail")
	}
}
