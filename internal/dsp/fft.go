// Package dsp implements the signal-processing substrate of SmarterYou:
// discrete Fourier transforms, fixed-length windows over sensor streams,
// magnitude computation, and the time- and frequency-domain statistics that
// Section V-C of the paper derives from each sensor window (mean, variance,
// max, min, range, spectral peak amplitude/frequency, and secondary peak).
package dsp

import (
	"errors"
)

// ErrEmptyInput is returned when a transform or statistic is requested on
// an empty signal.
var ErrEmptyInput = errors.New("dsp: empty input")

// FFT computes the discrete Fourier transform of x. Lengths whose only
// prime factors are 2, 3 and 5 — every power of two and every window size
// the authentication pipeline produces (50 Hz x 1..16 s = 50..800
// samples) — run a mixed-radix Cooley-Tukey transform; other lengths are
// handled by Bluestein's chirp-z algorithm over a power-of-two
// mixed-radix convolution, so any length is supported exactly. The
// factorization, twiddle and chirp tables come from a cached per-length
// FFTPlan; use a plan directly for the allocation-free in-place entry
// points.
func FFT(x []complex128) ([]complex128, error) {
	p, err := PlanFor(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	if err := p.Transform(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// IFFT computes the inverse discrete Fourier transform of x, normalized by
// 1/N so that IFFT(FFT(x)) == x.
func IFFT(x []complex128) ([]complex128, error) {
	p, err := PlanFor(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	if err := p.InverseTransform(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// FFTReal transforms a real-valued signal, returning the full complex
// spectrum.
func FFTReal(x []float64) ([]complex128, error) {
	if len(x) == 0 {
		return nil, ErrEmptyInput
	}
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return FFT(c)
}

// Spectrum holds the one-sided amplitude spectrum of a real signal.
type Spectrum struct {
	// Amplitudes[i] is the amplitude at Frequencies[i] in the input's
	// units. The DC bin is included at index 0.
	Amplitudes []float64
	// Frequencies in Hz, determined by the sampling rate.
	Frequencies []float64
}

// AmplitudeSpectrum computes the one-sided amplitude spectrum of a real
// signal sampled at sampleRate Hz. Non-DC (and non-Nyquist) bins are scaled
// by 2/N so amplitudes correspond to sinusoid amplitudes in the signal.
// The transform runs through the cached plan's real-input path; callers on
// the per-window hot path should hold a plan and use AmplitudeSpectrumInto
// to reuse the output buffers too.
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

// SpectralPeaks describes the dominant and secondary spectral components of
// a window, matching the paper's Peak, Peak_f, Peak2 and Peak2_f features.
type SpectralPeaks struct {
	Peak   float64 // amplitude of the main (non-DC) frequency
	PeakF  float64 // the main frequency in Hz
	Peak2  float64 // amplitude of the secondary frequency
	Peak2F float64 // the secondary frequency in Hz
}

// Peaks extracts the two largest non-DC spectral components. Neighbouring
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
