package main

import "math/bits"

// hist is the benchmark's own log-linear histogram of non-negative
// int64 values (nanoseconds everywhere in this package). Every octave
// [2^k, 2^(k+1)) is cut into histSub equal buckets, so a bucket is at
// most 1/128 of its lower bound wide and the reported midpoint is within
// 0.4 % of any value in it — under the 1 % the latency metrics promise.
// Values below histSub get one bucket each (exact). Two histograms merge
// by adding counts, so per-session histograms combine without loss.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histOctaves = 40 // top bucket starts at 2^46 ns, about 19 hours
	histBuckets = (histOctaves + 1) * histSub
)

type hist struct {
	counts   [histBuckets]uint64
	n        uint64
	min, max int64
}

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 - histSubBits
	if e >= histOctaves {
		return histBuckets - 1
	}
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// histValue is the value a bucket reports: its midpoint.
func histValue(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	e := uint(idx/histSub - 1)
	low := int64(histSub+idx%histSub) << e
	return low + (int64(1)<<e)/2
}

func (h *hist) record(v int64) { h.recordN(v, 1) }

// recordN records v n times: a burst of n windows that took n*v in all
// counts as n windows of latency v.
func (h *hist) recordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.counts[histBucket(v)] += n
	h.n += n
}

func (h *hist) merge(o *hist) {
	if o == nil || o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the value of rank ceil(q*n), clamped to the observed
// range; 0 when the histogram is empty.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := histValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
