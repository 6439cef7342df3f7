package dsp

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// FFT, IFFT, FFTReal and AmplitudeSpectrum are the allocating wrappers
// the tests use as references. The product reaches the transform engine
// only through a plan's AmplitudeSpectrumInto.

// FFT is the forward DFT of x through the cached plan's transform engine,
// the one the real-input path runs at half length.
func FFT(x []complex128) ([]complex128, error) {
	p, err := PlanFor(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	sc := p.scratch.Get().(*fftScratch)
	p.transform(out, x, sc.work, 1)
	p.scratch.Put(sc)
	return out, nil
}

// IFFT is the inverse DFT normalized by 1/N: conj(DFT(conj(x)))/N.
func IFFT(x []complex128) ([]complex128, error) {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = cmplx.Conj(v)
	}
	out, err := FFT(c)
	if err != nil {
		return nil, err
	}
	n := float64(len(x))
	for i, v := range out {
		out[i] = complex(real(v)/n, -imag(v)/n)
	}
	return out, nil
}

// FFTReal is the full complex DFT of a real signal.
func FFTReal(x []float64) ([]complex128, error) {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return FFT(c)
}

// Peaks is the reference peak rule over a whole amplitude spectrum, the
// oracle PeaksInto must match bit for bit. It extracts the two largest
// non-DC spectral components, first index on ties. Neighbouring
// bins of the primary peak are excluded when searching for the secondary
// peak so that spectral leakage of the main component is not reported as a
// distinct second peak.
func (s *Spectrum) Peaks() SpectralPeaks {
	var p SpectralPeaks
	best := -1
	for k := 1; k < len(s.Amplitudes); k++ {
		if best == -1 || s.Amplitudes[k] > s.Amplitudes[best] {
			best = k
		}
	}
	if best == -1 {
		return p
	}
	p.Peak = s.Amplitudes[best]
	p.PeakF = s.Frequencies[best]
	second := -1
	for k := 1; k < len(s.Amplitudes); k++ {
		if k >= best-1 && k <= best+1 {
			continue
		}
		if second == -1 || s.Amplitudes[k] > s.Amplitudes[second] {
			second = k
		}
	}
	if second != -1 {
		p.Peak2 = s.Amplitudes[second]
		p.Peak2F = s.Frequencies[second]
	}
	return p
}

// AmplitudeSpectrum is AmplitudeSpectrumInto a fresh Spectrum.
func AmplitudeSpectrum(x []float64, sampleRate float64) (*Spectrum, error) {
	p, err := PlanFor(len(x))
	if err != nil {
		return nil, err
	}
	out := &Spectrum{}
	if err := p.AmplitudeSpectrumInto(out, x, sampleRate); err != nil {
		return nil, err
	}
	return out, nil
}

func TestFFTEmpty(t *testing.T) {
	if _, err := FFT(nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("FFT(nil) err = %v, want ErrEmptyInput", err)
	}
	if _, err := IFFT(nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("IFFT(nil) err = %v, want ErrEmptyInput", err)
	}
	if _, err := FFTReal(nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("FFTReal(nil) err = %v, want ErrEmptyInput", err)
	}
}

func TestFFTImpulse(t *testing.T) {
	// The transform of a unit impulse is flat ones.
	x := make([]complex128, 8)
	x[0] = 1
	got, err := FFT(x)
	if err != nil {
		t.Fatalf("FFT: %v", err)
	}
	for k, v := range got {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestFFTKnownSinusoid(t *testing.T) {
	// A pure cosine at bin 3 of a 16-sample window puts N/2 in bins 3 and 13.
	n := 16
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * 3 * float64(i) / float64(n))
	}
	spec, err := FFTReal(x)
	if err != nil {
		t.Fatalf("FFTReal: %v", err)
	}
	for k, v := range spec {
		want := 0.0
		if k == 3 || k == 13 {
			want = float64(n) / 2
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Errorf("bin %d amplitude = %v, want %v", k, cmplx.Abs(v), want)
		}
	}
}

func TestFFTNonPowerOfTwoMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{3, 5, 6, 7, 12, 50, 300} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got, err := FFT(x)
		if err != nil {
			t.Fatalf("n=%d FFT: %v", n, err)
		}
		want := naiveDFT(x)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-8 {
				t.Fatalf("n=%d bin %d: got %v, want %v", n, k, got[k], want[k])
			}
		}
	}
}

// naiveDFT is the O(n²) definition, X_k = Σ_j x_j·exp(-2πi·kj/n), with the
// n roots of unity tabulated once and indexed by kj mod n.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	roots := make([]complex128, n)
	for r := range roots {
		roots[r] = cmplx.Exp(complex(0, -2*math.Pi*float64(r)/float64(n)))
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += x[j] * roots[k*j%n]
		}
		out[k] = s
	}
	return out
}

// Property: IFFT(FFT(x)) == x for arbitrary lengths, including non-powers
// of two exercised by the paper's 50 Hz windows.
func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(130)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		spec, err := FFT(x)
		if err != nil {
			return false
		}
		back, err := IFFT(spec)
		if err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(back[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: linearity, FFT(a*x + b*y) == a*FFT(x) + b*FFT(y).
func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		a := complex(rng.NormFloat64(), 0)
		b := complex(rng.NormFloat64(), 0)
		x := make([]complex128, n)
		y := make([]complex128, n)
		mix := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			mix[i] = a*x[i] + b*y[i]
		}
		fx, err1 := FFT(x)
		fy, err2 := FFT(y)
		fmix, err3 := FFT(mix)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for k := range fmix {
			if cmplx.Abs(fmix[k]-(a*fx[k]+b*fy[k])) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Parseval's theorem, sum|x|^2 == (1/N) sum|X|^2.
func TestParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		x := make([]complex128, n)
		timeE := 0.0
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		spec, err := FFT(x)
		if err != nil {
			return false
		}
		freqE := 0.0
		for _, v := range spec {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		freqE /= float64(n)
		return math.Abs(timeE-freqE) <= 1e-6*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAmplitudeSpectrum(t *testing.T) {
	// 2 Hz cosine with amplitude 3, sampled at 50 Hz over 100 samples
	// (2 s window) lands exactly on bin 4.
	const rate = 50.0
	n := 100
	x := make([]float64, n)
	for i := range x {
		x[i] = 3 * math.Cos(2*math.Pi*2*float64(i)/rate)
	}
	spec, err := AmplitudeSpectrum(x, rate)
	if err != nil {
		t.Fatalf("AmplitudeSpectrum: %v", err)
	}
	peaks := spec.Peaks()
	if math.Abs(peaks.PeakF-2) > 1e-9 {
		t.Errorf("PeakF = %v, want 2 Hz", peaks.PeakF)
	}
	if math.Abs(peaks.Peak-3) > 1e-9 {
		t.Errorf("Peak = %v, want 3", peaks.Peak)
	}
}

func TestAmplitudeSpectrumErrors(t *testing.T) {
	if _, err := AmplitudeSpectrum(nil, 50); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty err = %v, want ErrEmptyInput", err)
	}
	if _, err := AmplitudeSpectrum([]float64{1}, 0); err == nil {
		t.Errorf("zero sample rate should error")
	}
}

func TestPeaksTwoComponents(t *testing.T) {
	const rate = 50.0
	n := 200
	x := make([]float64, n)
	for i := range x {
		ts := float64(i) / rate
		x[i] = 5*math.Sin(2*math.Pi*3*ts) + 2*math.Sin(2*math.Pi*8*ts)
	}
	spec, err := AmplitudeSpectrum(x, rate)
	if err != nil {
		t.Fatalf("AmplitudeSpectrum: %v", err)
	}
	p := spec.Peaks()
	if math.Abs(p.PeakF-3) > 0.3 {
		t.Errorf("PeakF = %v, want ~3", p.PeakF)
	}
	if math.Abs(p.Peak2F-8) > 0.3 {
		t.Errorf("Peak2F = %v, want ~8", p.Peak2F)
	}
	if p.Peak < p.Peak2 {
		t.Errorf("primary peak %v smaller than secondary %v", p.Peak, p.Peak2)
	}
}

func TestPeaksSingleBinSpectrum(t *testing.T) {
	s := &Spectrum{Amplitudes: []float64{1}, Frequencies: []float64{0}}
	p := s.Peaks()
	if p.Peak != 0 || p.PeakF != 0 {
		t.Errorf("DC-only spectrum should yield zero peaks, got %+v", p)
	}
}
