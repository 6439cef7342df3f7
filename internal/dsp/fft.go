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

// Spectrum holds the one-sided amplitude spectrum of a real signal.
type Spectrum struct {
	// Amplitudes[i] is the amplitude at Frequencies[i] in the input's
	// units. The DC bin is included at index 0.
	Amplitudes []float64
	// Frequencies in Hz, determined by the sampling rate.
	Frequencies []float64
}

// SpectralPeaks describes the dominant and secondary spectral components of
// a window, matching the paper's Peak, Peak_f, Peak2 and Peak2_f features.
type SpectralPeaks struct {
	Peak   float64 // amplitude of the main (non-DC) frequency
	PeakF  float64 // the main frequency in Hz
	Peak2  float64 // amplitude of the secondary frequency
	Peak2F float64 // the secondary frequency in Hz
}
