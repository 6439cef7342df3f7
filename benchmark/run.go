package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// class is what a window really is, which the program is never told.
type class uint8

const (
	classGenuine class = iota
	classImpostor
	classMimic
	numClasses
)

// sessionStats is what one load-generating session saw in one segment.
type sessionStats struct {
	ops     int64 // window decisions; acked requests on cloud-write-replicated
	failed  int64 // errored, refused or wrong
	writes  int64 // acked enroll + reenroll + train
	windows int64 // windows that crossed the wire in authenticate requests
	// what the sessions sent, to hold against the server's own counters
	requests, batchWindows, streamWindows int64
	busy, redirects                       int64
	window                                hist // caller-observed latency of one window's decision
	verbs                                 [numSpanNames]hist
	offered                               [numClasses]int64
	accept                                [numClasses]int64
}

func (a *sessionStats) merge(b *sessionStats) {
	a.ops += b.ops
	a.failed += b.failed
	a.writes += b.writes
	a.windows += b.windows
	a.requests += b.requests
	a.batchWindows += b.batchWindows
	a.streamWindows += b.streamWindows
	a.busy += b.busy
	a.redirects += b.redirects
	a.window.merge(&b.window)
	for i := range a.verbs {
		a.verbs[i].merge(&b.verbs[i])
	}
	for c := range a.offered {
		a.offered[c] += b.offered[c]
		a.accept[c] += b.accept[c]
	}
}

func (s *sessionStats) decided(c class, accepted bool) {
	s.offered[c]++
	if accepted {
		s.accept[c]++
	}
}

// netSnap is the traffic the counting connections have carried so far.
type netSnap struct{ tx, rx, writes, reads, dials int64 }

func (a netSnap) since(b netSnap) netSnap {
	return netSnap{a.tx - b.tx, a.rx - b.rx, a.writes - b.writes, a.reads - b.reads, a.dials - b.dials}
}

// segment is one measured stretch of load: a round of the untraced run,
// or the traced run.
type segment struct {
	sessionStats
	wall  time.Duration
	proc  procSnap
	net   netSnap
	spans []span
	// lag holds replication-lag samples (records), traced segments of
	// cloud-write-replicated only; convergeNS is how long the follower
	// took to reach the leader's cursors once the sessions had stopped.
	lag        hist
	convergeNS int64
}

// workload is one of the four named workloads.
type workload interface {
	// setup makes the inputs from the seed, brings the system up under
	// dataDir and warms it: everything a run pays before the first
	// measured operation.
	setup(seed int64, dataDir string) error
	// sessions is how many closed-loop load generators drive the system.
	sessions() int
	// loop is one session's load until the deadline (nowNS clock). rec
	// is nil with tracing off.
	loop(session int, deadline int64, st *sessionStats, rec *recorder)
	// traffic reads the counting connections (zero for device-continuous).
	traffic() netSnap
	// verify runs the correctness checks after the measured region and
	// returns how many it attempted and how many failed.
	verify(r *report) (attempted, failed int64, err error)
	// layers fills per-layer metrics from the traced segment and from
	// isolated probes that replay the same inputs against one layer.
	layers(r *report, ref, traced *segment) error
	// teardown stops everything setup started and waits for it.
	teardown() error
}

// lagSampler is implemented by workloads that want a background sampler
// during traced segments.
type lagSampler interface {
	sampleLag(stop <-chan struct{}, into *hist)
}

// afterLoader is implemented by workloads that measure something at the
// moment the sessions stop.
type afterLoader interface {
	afterLoad(seg *segment)
}

func runSegment(w workload, d time.Duration, traced bool) *segment {
	n := w.sessions()
	stats := make([]sessionStats, n)
	recs := make([]*recorder, n)
	if traced {
		for i := range recs {
			recs[i] = newRecorder(i)
		}
	}
	seg := &segment{}
	stop := make(chan struct{})
	var samplerDone sync.WaitGroup
	if ls, ok := w.(lagSampler); ok && traced {
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			ls.sampleLag(stop, &seg.lag)
		}()
	}
	netBefore := w.traffic()
	procBefore := readProc()
	start := nowNS()
	deadline := start + int64(d)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			w.loop(s, deadline, &stats[s], recs[s])
		}(s)
	}
	wg.Wait()
	seg.wall = time.Duration(nowNS() - start)
	seg.proc = readProc().since(procBefore)
	seg.net = w.traffic().since(netBefore)
	close(stop)
	samplerDone.Wait()
	for s := range stats {
		seg.merge(&stats[s])
		if recs[s] != nil {
			seg.spans = append(seg.spans, recs[s].spans...)
		}
	}
	if al, ok := w.(afterLoader); ok {
		al.afterLoad(seg)
	}
	return seg
}

// Accept-rate bands. The models are small (a dozen enrollment windows
// per context on the cloud workloads) and accuracy is pinned elsewhere
// (TestTable7Orderings and friends); the bands only catch a path that
// has stopped telling users apart.
//
// Over a cohort of 16 or 64 victims the rates repeat from seed to seed:
// the owner is accepted at least minGenuineAccept of the time (0.80 to
// 0.99 seen), a mimic at most maxMimicAccept (0 to 0.30 seen). With one
// owner (device-continuous) every rate depends on how distinctive that
// owner happens to be: over 160 seeds the owner was accepted 0.56 to 1
// of the time, four strangers 0 to 0.60 and the same four imitating the
// owner 0 to 1. There the band is on the distance alone: strangers are
// accepted at least minSeparation less often than the owner (0.39 at the
// least over those seeds).
const (
	minGenuineAccept = 0.70
	maxMimicAccept   = 0.50
	minSeparation    = 0.20
)

// checkBands notes the accept rates per class, holds them against the
// bands, and returns how many checks it made.
func checkBands(r *report, what string, offered, accepted [numClasses]int64, oneOwner bool, failed *int64) (checks int64) {
	rate := func(c class) float64 { return float64(accepted[c]) / float64(offered[c]) }
	genuine := rate(classGenuine)
	check := func(ok bool) {
		checks++
		if !ok {
			*failed++
		}
	}
	var line string
	if oneOwner {
		line = fmt.Sprintf("accept rates on %s: genuine %.3f, impostor %.3f (band <= genuine - %.2f), mimic %.3f (one owner: no band)",
			what, genuine, rate(classImpostor), minSeparation, rate(classMimic))
		check(rate(classImpostor) <= genuine-minSeparation)
	} else {
		line = fmt.Sprintf("accept rates on %s: genuine %.3f (band >= %.2f), mimic %.3f (band <= %.2f)",
			what, genuine, minGenuineAccept, rate(classMimic), maxMimicAccept)
		check(genuine >= minGenuineAccept)
		check(rate(classMimic) <= maxMimicAccept)
	}
	r.note("%s", line)
	return checks
}

// steady is how the rounds of a run become one value: the mean of the
// best quarter of them. The host this runs on changes speed by a fifth
// from one second to the next and stays slow for ten or twenty seconds
// at a time (a plain SHA-256 loop shows it), which a median over rounds
// follows and two sets of runs then disagree by more than any sensible
// bound. Interference only ever slows a round down, so the best rounds
// are the ones that say most about the program; a quarter rather than
// the single best so that one lucky round does not set the value. Over
// ten seeds this cut the spread of window_p50_us on device-continuous
// from 31 % to 5 %. The median is printed beside it.
func steady(v []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if higherIsBetter {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	k := (len(s) + 3) / 4
	var sum float64
	for _, x := range s[:k] {
		sum += x
	}
	return sum / float64(k)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func minMax(v []float64) (lo, hi float64) {
	for i, x := range v {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}
