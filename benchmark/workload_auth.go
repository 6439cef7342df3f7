package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"smarteryou"
	"smarteryou/internal/binio"
	"smarteryou/internal/core"
	"smarteryou/internal/features"
	"smarteryou/internal/retrain"
	"smarteryou/internal/transport"
)

// authWorkload is cloud-auth-single and, with bursts set,
// cloud-auth-stream: nproc kept-alive v2 sessions against an in-process
// Authentication Server with a durable store and the drift monitor on,
// 64 trained identities, 90 % genuine and 10 % mimicry windows, all
// extracted beforehand.
//
// cloud-auth-single sends one window per request, round-robin over the
// identities. cloud-auth-stream alternates, per session, one StartStream
// burst (256 windows, 32 in flight, then Close) with 16 AuthenticateBatch
// calls of 16 windows, so half the windows travel by each shape.
type authWorkload struct {
	bursts bool

	cohort *cohort
	env    *cloudEnv
	sess   []*smarteryou.AuthSession
	pos    []int

	plan      []planItem   // cloud-auth-single: 16 windows for each identity
	burst     [][]planItem // cloud-auth-stream: 256 windows per identity
	baseStats smarteryou.AuthServerStats
}

type planItem struct {
	user   int
	class  class
	window features.WindowSample
}

const (
	authUsers       = 64
	planPerUser     = 16
	streamBurst     = 256
	streamInFlight  = 32
	batchSize       = 16
	batchesPerBurst = streamBurst / batchSize
	mimicShare      = 0.10
)

var authCohort = cohortSpec{users: authUsers, enrollS: 36, genuineS: 24, mimicS: 12}

func pick(rng *rand.Rand, id *identity, user, k int) planItem {
	if rng.Float64() < mimicShare {
		return planItem{user, classMimic, id.Mimic[k%len(id.Mimic)]}
	}
	return planItem{user, classGenuine, id.Genuine[k%len(id.Genuine)]}
}

func (w *authWorkload) sessions() int { return len(w.sess) }

func (w *authWorkload) traffic() netSnap { return w.env.net.snap() }

func (w *authWorkload) setup(seed int64, dataDir string) (err error) {
	if w.cohort, err = buildCohort(seed, authCohort); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 6, 0)))
	w.plan = w.plan[:0]
	for k := 0; k < planPerUser; k++ {
		for u := range w.cohort.ids {
			w.plan = append(w.plan, pick(rng, &w.cohort.ids[u], u, k))
		}
	}
	w.burst = make([][]planItem, len(w.cohort.ids))
	for u := range w.cohort.ids {
		for k := 0; k < streamBurst; k++ {
			w.burst[u] = append(w.burst[u], pick(rng, &w.cohort.ids[u], u, k))
		}
	}
	if w.env, err = startCloud(dataDir, w.cohort, false); err != nil {
		return err
	}
	n := runtime.GOMAXPROCS(0)
	w.sess = make([]*smarteryou.AuthSession, n)
	w.pos = make([]int, n)
	for s := range w.sess {
		client, err := w.env.client()
		if err != nil {
			return err
		}
		if w.sess[s], err = client.NewSession(); err != nil {
			return err
		}
		// Sessions start at different points of the plan so that they do
		// not ask for the same identity at the same moment.
		w.pos[s] = s * len(w.plan) / n
	}
	// Warm-up: every identity is served 3 x 16 windows by the shape the
	// workload uses, which loads its model into the server's cache, fills
	// the pools on both sides and gives the drift monitor the 20 windows
	// it wants before it judges a user; then any retrain that triggered
	// runs to the end before measurement starts.
	var warm sessionStats
	for pass := 0; pass < 3; pass++ {
		if w.bursts {
			for u := range w.burst {
				w.batches(w.sess[u%n], u, 1, &warm, nil)
			}
			w.stream(w.sess[0], pass, &warm, nil)
		} else {
			for i := range w.plan {
				w.single(w.sess[i%n], &w.plan[i], &warm, nil)
			}
		}
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d operations failed", warm.failed, warm.ops)
	}
	w.baseStats, err = w.env.settle()
	return err
}

// note sorts an error into the counters; it reports whether the session
// can go on (the server answered, only not with a decision).
func note(st *sessionStats, err error) bool {
	st.failed++
	var busy *smarteryou.BusyError
	var redirect *smarteryou.RedirectError
	switch {
	case errors.As(err, &busy):
		st.busy++
		return true
	case errors.As(err, &redirect):
		st.redirects++
		return true
	}
	return false
}

func (w *authWorkload) single(sess *smarteryou.AuthSession, it *planItem, st *sessionStats, rec *recorder) bool {
	t0 := nowNS()
	h := rec.begin(spanAuthRTT, -1)
	d, err := sess.Authenticate(w.cohort.ids[it.user].ID, it.window)
	rec.end(h)
	lat := nowNS() - t0
	st.ops++
	st.requests++
	st.windows++
	st.window.record(lat)
	st.verbs[spanAuthRTT].record(lat)
	if err != nil {
		return note(st, err)
	}
	st.decided(it.class, d.Accepted)
	return true
}

// batches sends count AuthenticateBatch calls of 16 windows for one user.
func (w *authWorkload) batches(sess *smarteryou.AuthSession, user, count int, st *sessionStats, rec *recorder) bool {
	id := w.cohort.ids[user].ID
	items := w.burst[user]
	var samples [batchSize]features.WindowSample
	for b := 0; b < count; b++ {
		part := items[b*batchSize : (b+1)*batchSize]
		for i := range part {
			samples[i] = part[i].window
		}
		t0 := nowNS()
		h := rec.begin(spanBatchRTT, -1)
		ds, err := sess.AuthenticateBatch(id, samples[:])
		rec.end(h)
		lat := nowNS() - t0
		st.ops += batchSize
		st.requests++
		st.windows += batchSize
		st.batchWindows += batchSize
		st.verbs[spanBatchRTT].record(lat)
		if err != nil || len(ds) != batchSize {
			if err == nil {
				err = errors.New("short batch")
			}
			st.failed += batchSize - 1
			if !note(st, err) {
				return false
			}
			continue
		}
		for i, d := range ds {
			st.decided(part[i].class, d.Accepted)
		}
	}
	return true
}

// stream opens a stream for one user, pushes 256 windows with 32 in
// flight, and closes it.
func (w *authWorkload) stream(sess *smarteryou.AuthSession, user int, st *sessionStats, rec *recorder) bool {
	user %= len(w.burst)
	items := w.burst[user]
	t0 := nowNS()
	req := rec.begin(spanRequest, -1)
	h := rec.begin(spanStreamOpen, req)
	stm, err := sess.StartStream(w.cohort.ids[user].ID)
	rec.end(h)
	tOpen := nowNS()
	st.requests++
	st.ops += streamBurst
	st.windows += streamBurst
	if err != nil {
		rec.end(req)
		st.failed += streamBurst - 1
		return note(st, err)
	}
	h = rec.begin(spanStreamBurst, req)
	got, bad := 0, int64(0)
	recv := func() {
		d, err := stm.Recv()
		if err != nil {
			bad++
		} else {
			st.decided(items[got].class, d.Accepted)
		}
		got++
	}
	for i := range items {
		if err := stm.Push(items[i].window); err != nil {
			bad++
			continue
		}
		st.streamWindows++
		if i-got+1 == streamInFlight {
			recv()
		}
	}
	for got < len(items) && bad == 0 {
		recv()
	}
	rec.end(h)
	tBurst := nowNS()
	h = rec.begin(spanStreamClose, req)
	err = stm.Close()
	rec.end(h)
	rec.end(req)
	st.verbs[spanStreamOpen].record(tOpen - t0)
	st.verbs[spanStreamBurst].recordN((tBurst-tOpen)/streamBurst, streamBurst)
	if err != nil || bad > 0 {
		st.failed += bad
		if err != nil {
			st.failed++
		}
		return false // a failed stream poisons its session
	}
	return true
}

func (w *authWorkload) loop(s int, deadline int64, st *sessionStats, rec *recorder) {
	sess := w.sess[s]
	for nowNS() < deadline {
		p := w.pos[s]
		w.pos[s]++
		if !w.bursts {
			if !w.single(sess, &w.plan[p%len(w.plan)], st, rec) {
				return
			}
			continue
		}
		// One turn is a stream burst and 16 batches, for two different
		// identities; the next turn moves on to the next pair. What the
		// caller observes for a window is the turn's wall time, stream
		// open and close included, divided by its 512 windows. (A p50 over
		// the two burst shapes' own amortised times would sit on the edge
		// between two modes and flip from run to run; the per-shape times
		// are per-layer metrics.)
		t0 := nowNS()
		ok := w.stream(sess, p, st, rec) && w.batches(sess, (p+len(w.burst)/2)%len(w.burst), batchesPerBurst, st, rec)
		st.window.recordN((nowNS()-t0)/(2*streamBurst), 2*streamBurst)
		if !ok {
			return
		}
	}
}

func (w *authWorkload) verify(r *report) (attempted, failed int64, err error) {
	r.InputDigest = w.cohort.digest
	client, err := w.env.client()
	if err != nil {
		return 0, 0, err
	}
	defer client.Close()
	sess, err := client.NewSession()
	if err != nil {
		return 0, 0, err
	}
	defer sess.Close()

	// The same windows by all three wire shapes must get the same
	// decisions, score and context included.
	d := newDigest()
	var offered, accepted [numClasses]int64
	for u := range w.cohort.ids {
		id := w.cohort.ids[u].ID
		var items []planItem
		var samples []features.WindowSample
		for k := 0; k < planPerUser; k++ {
			it := w.plan[k*len(w.cohort.ids)+u]
			items = append(items, it)
			samples = append(samples, it.window)
		}
		single := make([]smarteryou.AuthDecision, len(items))
		for i := range items {
			if single[i], err = sess.Authenticate(id, samples[i]); err != nil {
				return attempted, failed, fmt.Errorf("verify single %s: %w", id, err)
			}
			d.decision(single[i].Accepted, single[i].Context)
			offered[items[i].class]++
			if single[i].Accepted {
				accepted[items[i].class]++
			}
		}
		batch, err := sess.AuthenticateBatch(id, samples)
		if err != nil {
			return attempted, failed, fmt.Errorf("verify batch %s: %w", id, err)
		}
		stm, err := sess.StartStream(id)
		if err != nil {
			return attempted, failed, fmt.Errorf("verify stream %s: %w", id, err)
		}
		streamed := make([]smarteryou.AuthDecision, len(items))
		for i := range samples {
			if streamed[i], err = stm.Authenticate(samples[i]); err != nil {
				return attempted, failed, fmt.Errorf("verify stream %s: %w", id, err)
			}
		}
		if err := stm.Close(); err != nil {
			return attempted, failed, fmt.Errorf("verify stream close %s: %w", id, err)
		}
		for i := range items {
			attempted += 2
			if len(batch) != len(items) || batch[i] != single[i] {
				failed++
			}
			if streamed[i] != single[i] {
				failed++
			}
		}
	}
	r.DecisionDigest = d.hex()
	r.note("single = batch = stream compared on %d windows", len(w.plan))
	attempted += checkBands(r, "single requests", offered, accepted, false, &failed)
	return attempted, failed, nil
}

// wireProbes fills the layer metrics every cloud workload shares: the
// window codec, detection and scoring with a model fetched from the
// server, the drift monitor, and the envelope and frame codecs replayed
// on a request frame captured from the wire.
func wireProbes(r *report, env *cloudEnv, id *identity) (auth *core.Authenticator, err error) {
	sample := id.Genuine[0]
	var buf []byte
	r.set("features.codec_ns", probeNS(probeBudget, func() {
		buf = features.AppendSampleBinary(buf[:0], sample)
		_ = features.ReadSampleBinary(binio.NewReader(buf))
	}))
	r.set("features.window_bytes", float64(features.EncodedSampleSize(sample)))

	bundle, _, err := env.admin.FetchModel(id.ID, 0)
	if err != nil {
		return nil, err
	}
	det, err := env.admin.FetchDetector()
	if err != nil {
		return nil, err
	}
	if auth, err = core.NewAuthenticator(det, bundle); err != nil {
		return nil, err
	}
	r.set("ctxdetect.detect_ns", probeNS(probeBudget, func() { _, _ = det.Detect(sample.Phone) }))
	score := func() { _, _ = auth.Authenticate(sample) }
	r.set("core.score_ns", probeNS(probeBudget, score))
	r.set("core.score_allocs", allocsPerCall(200, score))

	mon := retrain.NewMonitor(retrain.Config{})
	now := time.Now()
	users := make([]string, authUsers)
	for i := range users {
		users[i] = smarteryou.AnonymizeUser(fmt.Sprintf("user-%02d", i))
	}
	i := 0
	r.set("retrain.observe_ns", probeNS(probeBudget, func() {
		mon.Observe(users[i%len(users)], 0.8, true, now)
		i++
	}))

	// One message is sealed by its sender and opened by its receiver:
	// two HMAC-SHA256 passes over the payload. The v2 seal is not
	// exported, so the probe opens a captured v2 request and seals a
	// payload of the same size with the exported Seal; the binary payload
	// encoding itself lands in trace.unexplained_us.
	frame, err := env.captureAuthFrame(id.ID, sample)
	if err != nil {
		return nil, err
	}
	captured, err := transport.ReadFrame(bytes.NewReader(frame))
	if err != nil {
		return nil, fmt.Errorf("re-read captured frame: %w", err)
	}
	filler, err := json.Marshal(string(bytes.Repeat([]byte{'x'}, len(captured.Payload))))
	if err != nil {
		return nil, err
	}
	if err := captured.Open(benchKey, nil); err != nil {
		return nil, fmt.Errorf("captured frame does not verify: %w", err)
	}
	r.set("transport.envelope_ns", probeNS(probeBudget, func() {
		_, _ = transport.Seal(benchKey, captured.Type, json.RawMessage(filler))
		_ = captured.Open(benchKey, nil)
	}))
	var wire bytes.Buffer
	r.set("transport.frame_ns", probeNS(probeBudget, func() {
		wire.Reset()
		_ = transport.WriteFrame(&wire, captured)
		_, _ = transport.ReadFrame(&wire)
	}))
	return auth, nil
}

// trafficMetrics fills the counts the traced segment gives directly.
func trafficMetrics(r *report, env *cloudEnv, base smarteryou.AuthServerStats, ref, traced *segment) (smarteryou.AuthServerStats, error) {
	p50us := func(h *hist) float64 { return float64(h.quantile(0.5)) / 1e3 }
	r.set("transport.auth_rtt_p50_us", p50us(&traced.verbs[spanAuthRTT]))
	r.set("transport.auth_rtt_p99_us", float64(traced.verbs[spanAuthRTT].quantile(0.99))/1e3)
	r.set("transport.batch16_rtt_p50_us", p50us(&traced.verbs[spanBatchRTT]))
	r.set("transport.stream_window_p50_us", p50us(&traced.verbs[spanStreamBurst]))
	r.set("transport.stream_open_p50_us", p50us(&traced.verbs[spanStreamOpen]))
	if traced.windows > 0 {
		n := float64(traced.windows)
		r.set("transport.tx_bytes_per_window", float64(traced.net.tx)/n)
		r.set("transport.rx_bytes_per_window", float64(traced.net.rx)/n)
		r.set("transport.conn_writes_per_window", float64(traced.net.writes)/n)
		r.set("transport.conn_reads_per_window", float64(traced.net.reads)/n)
	}
	r.set("transport.busy", float64(traced.busy))
	r.set("transport.redirects", float64(traced.redirects))
	// Sessions dial in set-up; a dial inside a segment is the client
	// replacing a connection that died.
	r.set("transport.retries", float64(traced.net.dials))

	// What the server counted since the end of set-up must be what the
	// two segments sent (plus this one stats request).
	now, err := env.admin.FullStats()
	if err != nil {
		return now, err
	}
	wireOf := func(s smarteryou.AuthServerStats) smarteryou.WireStats {
		if s.Wire == nil {
			return smarteryou.WireStats{}
		}
		return *s.Wire
	}
	a, b := wireOf(base), wireOf(now)
	sent := ref.requests + traced.requests
	r.set("transport.server_v2_requests", float64(b.V2Requests-a.V2Requests)-1)
	r.set("transport.server_batch_windows", float64(b.BatchWindows-a.BatchWindows))
	r.set("transport.server_stream_windows", float64(b.StreamWindows-a.StreamWindows))
	r.Attempted += 3
	if int64(b.V2Requests-a.V2Requests)-1 != sent {
		r.Failed++
		r.note("server counted %d v2 requests, sessions sent %d", b.V2Requests-a.V2Requests-1, sent)
	}
	if int64(b.BatchWindows-a.BatchWindows) != ref.batchWindows+traced.batchWindows {
		r.Failed++
		r.note("server counted %d batch windows, sessions sent %d", b.BatchWindows-a.BatchWindows, ref.batchWindows+traced.batchWindows)
	}
	if int64(b.StreamWindows-a.StreamWindows) != ref.streamWindows+traced.streamWindows {
		r.Failed++
		r.note("server counted %d stream windows, sessions sent %d", b.StreamWindows-a.StreamWindows, ref.streamWindows+traced.streamWindows)
	}
	if now.Retrain != nil {
		r.set("retrain.completed", float64(now.Retrain.Completed))
	}
	return now, nil
}

func (w *authWorkload) layers(r *report, ref, traced *segment) error {
	if _, err := trafficMetrics(r, w.env, w.baseStats, ref, traced); err != nil {
		return err
	}
	id := &w.cohort.ids[0]
	auth, err := wireProbes(r, w.env, id)
	if err != nil {
		return err
	}
	e2e := float64(ref.window.quantile(0.5)) / 1e3
	m := r.Metrics
	if !w.bursts {
		reconcile(r, "window_p50_us", e2e, []budgetLine{
			{"transport envelope (seal+open), request and response", 2 * m["transport.envelope_ns"] / 1e3},
			{"transport frame (write+read), request and response", 2 * m["transport.frame_ns"] / 1e3},
			{"features window codec", m["features.codec_ns"] / 1e3},
			{"core authenticate (ctxdetect " + fmt.Sprintf("%.2f", m["ctxdetect.detect_ns"]/1e3) + " inside)", m["core.score_ns"] / 1e3},
			{"retrain observe", m["retrain.observe_ns"] / 1e3},
		})
		return nil
	}
	samples := make([]features.WindowSample, batchSize)
	for i := range samples {
		samples[i] = w.burst[0][i].window
	}
	var dst []core.Decision
	r.set("core.batch_score_ns", probeNS(probeBudget, func() {
		dst, _ = auth.AuthenticateBatch(samples, dst[:0])
	})/batchSize)
	reconcile(r, "window_p50_us", e2e, []budgetLine{
		{"features window codec", m["features.codec_ns"] / 1e3},
		{"core authenticate, batched (ctxdetect inside)", m["core.batch_score_ns"] / 1e3},
		{"retrain observe", m["retrain.observe_ns"] / 1e3},
	})
	return nil
}

func (w *authWorkload) teardown() error {
	var first error
	for _, s := range w.sess {
		if s != nil {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	w.sess = nil
	if w.env != nil {
		if err := w.env.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
