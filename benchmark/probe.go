package main

import "time"

// probeNS times fn in isolation and returns the median cost of one call
// in nanoseconds. Calls are timed in batches long enough (>= 50 us) that
// reading the clock is under 0.2 % of a batch; the median is over
// batches, so a GC cycle or a descheduled batch does not move it.
func probeNS(budget time.Duration, fn func()) float64 {
	fn() // warm pools and caches
	batch := 1
	for {
		t0 := nowNS()
		for i := 0; i < batch; i++ {
			fn()
		}
		if d := nowNS() - t0; d >= 50_000 || batch >= 1<<20 {
			break
		}
		batch *= 2
	}
	var h hist
	deadline := nowNS() + int64(budget)
	for n := 0; n < 400 && (n < 5 || nowNS() < deadline); n++ {
		t0 := nowNS()
		for i := 0; i < batch; i++ {
			fn()
		}
		h.record((nowNS() - t0) / int64(batch))
	}
	return float64(h.quantile(0.5))
}

// probeBudget is what one isolated probe may spend. Forty-odd probes at
// this budget fit in the traced run's share of --seconds.
const probeBudget = 60 * time.Millisecond
