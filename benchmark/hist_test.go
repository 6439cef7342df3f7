package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func sortedQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// The histogram must agree with sorted samples within 1 % at every
// quantile the benchmark reports, across six orders of magnitude.
func TestHistQuantileErrorAgainstSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	samples := make([]int64, 200000)
	for i := range samples {
		// log-uniform from 50 ns to 50 ms, the range the metrics span
		v := int64(50 * math.Exp(rng.Float64()*math.Log(1e6)))
		samples[i] = v
		h.record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		want := sortedQuantile(samples, q)
		got := h.quantile(q)
		if rel := math.Abs(float64(got-want)) / float64(want); rel > 0.01 {
			t.Errorf("q=%g: hist %d, sorted %d, relative error %.4f > 1%%", q, got, want, rel)
		}
	}
}

func TestHistSmallValuesAreExact(t *testing.T) {
	var h hist
	for v := int64(0); v < histSub; v++ {
		h.record(v)
	}
	for v := int64(0); v < histSub; v++ {
		if got := h.quantile(float64(v+1) / histSub); got != v {
			t.Fatalf("rank %d: got %d, want %d", v+1, got, v)
		}
	}
}

func TestHistBucketsAreContiguousAndMonotonic(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 257, 1 << 20, 1<<20 + 1<<13, 1 << 45, math.MaxInt64} {
		b := histBucket(v)
		if b < prev {
			t.Fatalf("bucket(%d)=%d went below %d", v, b, prev)
		}
		if b >= histBuckets {
			t.Fatalf("bucket(%d)=%d out of range", v, b)
		}
		prev = b
	}
	for i := histSub; i < histBuckets-1; i++ {
		if histBucket(histValue(i)) != i {
			t.Fatalf("bucket %d does not contain its own midpoint %d", i, histValue(i))
		}
	}
}

// Merging per-session histograms must give exactly the histogram of the
// concatenated samples.
func TestHistMergeEqualsConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b, all hist
	for i := 0; i < 50000; i++ {
		v := int64(rng.ExpFloat64() * 30000)
		if i%3 == 0 {
			a.record(v)
		} else {
			b.recordN(v, 2)
			all.record(v)
		}
		all.record(v)
	}
	a.merge(&b)
	if a != all {
		t.Fatal("merge(a,b) differs from the histogram of all samples")
	}
	var empty hist
	a.merge(&empty)
	if a != all {
		t.Fatal("merging an empty histogram changed the result")
	}
}
