package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"smarteryou/internal/core"
	"smarteryou/internal/features"
	"smarteryou/internal/netcond"
	"smarteryou/internal/transport"
)

// RunOptions wires a load run to its target.
type RunOptions struct {
	// Addr is the client-facing address traffic targets (a Cluster.Addr,
	// or any running authserver).
	Addr string
	// StatsAddr is where the post-run stats snapshot (retrain counters)
	// is fetched; default Addr. Point it at the shard owner when the
	// retrains run there.
	StatsAddr string
	// Key is the pre-shared HMAC key.
	Key []byte
	// Timeout bounds each round trip (default 30 s; raise it for heavily
	// conditioned links).
	Timeout time.Duration
	// MidRun, when set together with the scenario's FailoverAt or
	// RebalanceAt, fires exactly once when that fraction of the steady
	// ops has completed — the hook a failover scenario kills the owner
	// from, and a rebalance scenario joins the spare node from.
	MidRun func()
	// TrackEnrolls records the user ID of every completed enroll op on
	// the report (acceptance tests cross-check them against the server).
	TrackEnrolls bool
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// op kinds, indexing the per-worker tallies.
const (
	opAuth = iota
	opEnroll
	opReenroll
	opTrain
	opMimic
	opBatch
	opStream
	opKinds
)

var opNames = [opKinds]string{"authenticate", "enroll", "reenroll", "train", "mimicry", "batch", "stream"}

// tally is one worker's private accounting for one op kind.
type tally struct {
	hist      Histogram
	ok        uint64
	errs      uint64
	busy      uint64
	redirects uint64
	accepted  uint64
	rejected  uint64
	errSample string
}

// outcome classifies one executed op.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeBusy
	outcomeErr
)

// worker owns one load connection set: per-address sessions dialed
// through the scenario's network conditioner.
type worker struct {
	id      int
	primary string
	key     []byte
	timeout time.Duration
	dial    transport.DialFunc
	rng     *rand.Rand

	clients  map[string]*transport.Client
	sessions map[string]*transport.Session
	tallies  [opKinds]tally
}

func (wk *worker) client(addr string) (*transport.Client, error) {
	if c := wk.clients[addr]; c != nil {
		return c, nil
	}
	c, err := transport.NewClient(transport.ClientConfig{
		Addr:    addr,
		Key:     wk.key,
		Timeout: wk.timeout,
		Dial:    wk.dial,
		// Load clients keep busy backoff short: the harness measures how
		// the server sheds load, it should not hide it behind long sleeps.
		BusyRetries:    2,
		MaxBusyBackoff: 300 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	wk.clients[addr] = c
	return c, nil
}

func (wk *worker) session(addr string) (*transport.Session, error) {
	if s := wk.sessions[addr]; s != nil {
		return s, nil
	}
	c, err := wk.client(addr)
	if err != nil {
		return nil, err
	}
	s, err := c.NewSession()
	if err != nil {
		return nil, err
	}
	wk.sessions[addr] = s
	return s, nil
}

func (wk *worker) dropSession(addr string) {
	if s := wk.sessions[addr]; s != nil {
		_ = s.Close()
		delete(wk.sessions, addr)
	}
}

func (wk *worker) closeAll() {
	for addr := range wk.sessions {
		wk.dropSession(addr)
	}
}

// execute runs one op with redirect-following and transient-error
// retries, updating the op kind's tally (latency includes every hop and
// backoff — the device-perceived op time). Burst ops (batch, stream)
// carry more than one window; their elapsed time is divided by windows
// so the histogram records per-window latency and stays comparable with
// the single-window authenticate op.
func (wk *worker) execute(kind, windows int, op func(s *transport.Session) error) outcome {
	const attempts = 4
	if windows < 1 {
		windows = 1
	}
	t := &wk.tallies[kind]
	start := time.Now()
	out, errMsg := wk.attemptLoop(attempts, t, op)
	t.hist.Observe(time.Since(start) / time.Duration(windows))
	switch out {
	case outcomeOK:
		t.ok++
	case outcomeBusy:
		t.busy++
	case outcomeErr:
		t.errs++
		if t.errSample == "" {
			t.errSample = errMsg
		}
	}
	return out
}

func (wk *worker) attemptLoop(attempts int, t *tally, op func(s *transport.Session) error) (outcome, string) {
	addr := wk.primary
	var lastErr error
	for a := 0; a < attempts; a++ {
		s, err := wk.session(addr)
		if err != nil {
			// The address is unreachable (a killed owner); fall back to
			// the primary after a beat.
			lastErr = err
			addr = wk.primary
			time.Sleep(25 * time.Millisecond)
			continue
		}
		err = op(s)
		if err == nil {
			return outcomeOK, ""
		}
		var redirect *transport.RedirectError
		var busy *transport.BusyError
		var remote *transport.RemoteError
		switch {
		case errors.As(err, &redirect):
			t.redirects++
			lastErr = err
			if redirect.Leader == "" || redirect.Leader == addr {
				time.Sleep(25 * time.Millisecond)
				continue
			}
			addr = redirect.Leader
		case errors.As(err, &busy):
			// The client's capped backoff already ran; a surviving busy is
			// a shed-load outcome, not a failure.
			return outcomeBusy, ""
		case errors.As(err, &remote):
			// Application-level rejection; retrying cannot help.
			return outcomeErr, err.Error()
		default:
			// Connection-level failure: the session is poisoned. Drop it
			// and retry against the primary (failovers land here).
			lastErr = err
			wk.dropSession(addr)
			addr = wk.primary
			time.Sleep(25 * time.Millisecond)
		}
	}
	msg := "exhausted retries"
	if lastErr != nil {
		msg = lastErr.Error()
	}
	return outcomeErr, msg
}

// userID names fleet identity i of a scenario. Identities are cloned from
// template i mod len(templates).
func userID(scenario string, i int) string {
	return fmt.Sprintf("fleet-%s-%06d", scenario, i)
}

// driftIndex maps run progress to a position in a day-ordered window
// pool, with a little jitter so workers do not all present the same
// window.
func driftIndex(progress float64, n int, rng *rand.Rand) int {
	idx := int(progress*float64(n)) + rng.Intn(3)
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// stageTrainParams is the cohort model-training request: the paper's
// two-device combined vector, bounded per-class samples so staging cost
// stays flat as the cohort grows.
func stageTrainParams(seed int64) transport.TrainParams {
	return transport.TrainParams{
		Mode:        core.Mode{Combined: true},
		MaxPerClass: 40,
		Seed:        seed,
	}
}

// Run executes one scenario against the target and reports. The run has
// two phases: a stage phase that enrolls and trains the scored cohort
// (out-of-band provisioning, unconditioned network, reported separately),
// and a measured steady phase that drives the scenario's op mix through
// the scenario's network conditions.
func Run(sc Scenario, w *Workload, opts RunOptions) (*Report, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if opts.Addr == "" {
		return nil, fmt.Errorf("fleet: RunOptions.Addr is required")
	}
	if len(opts.Key) == 0 {
		return nil, fmt.Errorf("fleet: RunOptions.Key is required")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	stageStart := time.Now()
	if err := stageCohort(sc, w, opts); err != nil {
		return nil, err
	}
	stageSeconds := time.Since(stageStart).Seconds()
	logf("fleet %s: staged %d cohort users in %.1fs", sc.Name, sc.ScoredUsers, stageSeconds)

	totalOps := sc.SteadyOps()
	midRunAt := sc.FailoverAt
	if midRunAt == 0 {
		midRunAt = sc.RebalanceAt
	}
	failoverAfter := 0
	if midRunAt > 0 && opts.MidRun != nil {
		failoverAfter = int(midRunAt * float64(totalOps))
		if failoverAfter < 1 {
			failoverAfter = 1
		}
	}

	// The steady phase: workers pull ops off a shared counter until the
	// budget is spent.
	var (
		started   atomic.Int64
		completed atomic.Int64
		freshTail atomic.Int64
		midRun    sync.Once

		enrolledMu sync.Mutex
		enrolled   []string
	)
	cum := cumulativeMix(sc.Mix)
	workers := make([]*worker, sc.Workers)
	steadyStart := time.Now()
	var wg sync.WaitGroup
	for wi := 0; wi < sc.Workers; wi++ {
		wk := &worker{
			id:      wi,
			primary: opts.Addr,
			key:     opts.Key,
			timeout: opts.Timeout,
			dial:    transport.DialFunc(netcond.Dialer(sc.Network, sc.Seed+int64(wi)*7919)),
			rng:     rand.New(rand.NewSource(sc.Seed*1_000_003 + int64(wi))),
			clients: make(map[string]*transport.Client),
			// sessions keyed by address: redirects and failovers open a
			// second flow without losing the primary one.
			sessions: make(map[string]*transport.Session),
		}
		workers[wi] = wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wk.closeAll()
			for {
				n := started.Add(1)
				if n > int64(totalOps) {
					return
				}
				progress := float64(n-1) / float64(totalOps)
				kind := drawOp(cum, wk.rng)
				runOp(sc, w, wk, kind, progress, &freshTail, func(id string) {
					if opts.TrackEnrolls {
						enrolledMu.Lock()
						enrolled = append(enrolled, id)
						enrolledMu.Unlock()
					}
				})
				if c := completed.Add(1); failoverAfter > 0 && c == int64(failoverAfter) {
					midRun.Do(opts.MidRun)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(steadyStart).Seconds()

	rep := buildReport(sc, workers, stageSeconds, wall)
	rep.Enrolled = enrolled
	attachStats(rep, opts)
	rep.EvaluateSLO(sc.SLO)
	logf("fleet %s: %d ops in %.1fs (%.0f ops/s), errors %d, SLO pass=%v",
		sc.Name, rep.TotalOps, wall, rep.Throughput, rep.Errors, rep.SLO.Pass)
	return rep, nil
}

// stageCohort enrolls and trains the scored cohort through the wire (no
// network conditioning: provisioning is out of band). Redirects are
// followed so a replica target stages through the shard owner.
func stageCohort(sc Scenario, w *Workload, opts RunOptions) error {
	par := sc.Workers
	if par > sc.ScoredUsers {
		par = sc.ScoredUsers
	}
	errCh := make(chan error, par)
	var next atomic.Int64
	for p := 0; p < par; p++ {
		go func() {
			wk := &worker{
				primary: opts.Addr,
				key:     opts.Key,
				timeout: opts.Timeout,
				// Stage pushes the training pool hard; be patient with
				// busy responses rather than failing provisioning.
				dial:     net0Dial,
				clients:  make(map[string]*transport.Client),
				sessions: make(map[string]*transport.Session),
			}
			defer wk.closeAll()
			var failed error
			for {
				i := int(next.Add(1)) - 1
				if i >= sc.ScoredUsers || failed != nil {
					break
				}
				t := w.Templates[i%len(w.Templates)]
				id := userID(sc.Name, i)
				enroll := NewPersona(i).ApplyAll(id, t.Enroll)
				failed = stageOne(wk, id, enroll, sc.Seed+int64(i))
			}
			errCh <- failed
		}()
	}
	for p := 0; p < par; p++ {
		if err := <-errCh; err != nil {
			return fmt.Errorf("fleet: stage cohort: %w", err)
		}
	}
	return nil
}

// net0Dial is the stage phase's unconditioned dialer.
var net0Dial = transport.DialFunc(netcond.Dialer(netcond.Config{}, 0))

// stageOne provisions one cohort user: enroll, then train, following
// redirects and waiting out busy responses.
func stageOne(wk *worker, id string, enroll []features.WindowSample, seed int64) error {
	const attempts = 6
	addr := wk.primary
	var lastErr error
	step := 0 // 0: enroll, 1: train
	for a := 0; a < attempts; a++ {
		s, err := wk.session(addr)
		if err != nil {
			lastErr = err
			addr = wk.primary
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if step == 0 {
			if _, err = s.Enroll(id, enroll); err == nil {
				step = 1
				a = -1 // a fresh attempt budget for the train step
				continue
			}
		} else {
			if _, err = s.Train(id, stageTrainParams(seed)); err == nil {
				return nil
			}
		}
		lastErr = err
		var redirect *transport.RedirectError
		var busy *transport.BusyError
		switch {
		case errors.As(err, &redirect) && redirect.Leader != "" && redirect.Leader != addr:
			addr = redirect.Leader
		case errors.As(err, &busy):
			time.Sleep(100 * time.Millisecond)
		default:
			wk.dropSession(addr)
			addr = wk.primary
			time.Sleep(50 * time.Millisecond)
		}
	}
	return fmt.Errorf("stage %s: %w", id, lastErr)
}

// cumulativeMix flattens the mix into cumulative weights indexed by op
// kind.
func cumulativeMix(m Mix) [opKinds]float64 {
	var cum [opKinds]float64
	acc := 0.0
	for kind, w := range [opKinds]float64{m.Authenticate, m.Enroll, m.Reenroll, m.Train, m.Mimicry, m.Batch, m.Stream} {
		acc += w
		cum[kind] = acc
	}
	return cum
}

// drawOp samples an op kind from the cumulative mix.
func drawOp(cum [opKinds]float64, rng *rand.Rand) int {
	r := rng.Float64() * cum[opKinds-1]
	for kind, c := range cum {
		if r < c {
			return kind
		}
	}
	return opAuth
}

// runOp executes one steady-phase op of the drawn kind.
func runOp(sc Scenario, w *Workload, wk *worker, kind int, progress float64, freshTail *atomic.Int64, onEnrolled func(string)) {
	cohort := wk.rng.Intn(sc.ScoredUsers)
	t := w.Templates[cohort%len(w.Templates)]
	id := userID(sc.Name, cohort)
	persona := NewPersona(cohort)
	switch kind {
	case opAuth:
		sample := persona.Apply(id, t.Auth[driftIndex(progress, len(t.Auth), wk.rng)])
		var dec transport.AuthDecision
		out := wk.execute(kind, 1, func(s *transport.Session) error {
			var err error
			dec, err = s.Authenticate(id, sample)
			return err
		})
		if out == outcomeOK {
			if dec.Accepted {
				wk.tallies[kind].accepted++
			} else {
				wk.tallies[kind].rejected++
			}
		}
	case opMimic:
		// The attacker imitates what the victim's devices report, so the
		// victim's persona shapes the mimic window too.
		sample := persona.Apply(id, t.Mimic[wk.rng.Intn(len(t.Mimic))])
		var dec transport.AuthDecision
		out := wk.execute(kind, 1, func(s *transport.Session) error {
			var err error
			dec, err = s.Authenticate(id, sample)
			return err
		})
		if out == outcomeOK {
			if dec.Accepted {
				wk.tallies[kind].accepted++
			} else {
				wk.tallies[kind].rejected++
			}
		}
	case opBatch:
		// A burst of recent genuine windows in one round trip — the
		// envelope-v2 batch op. Decisions are tallied per window.
		samples := burstSamples(persona, id, t.Auth, sc.BatchWindows, progress, wk.rng)
		var decs []transport.AuthDecision
		out := wk.execute(kind, len(samples), func(s *transport.Session) error {
			var err error
			decs, err = s.AuthenticateBatch(id, samples)
			return err
		})
		if out == outcomeOK {
			for _, dec := range decs {
				if dec.Accepted {
					wk.tallies[kind].accepted++
				} else {
					wk.tallies[kind].rejected++
				}
			}
		}
	case opStream:
		// One streaming session: handshake, a pipelined run of windows,
		// close. The recorded latency is the whole session divided by its
		// window count, so the stream op's histogram is per-window.
		samples := burstSamples(persona, id, t.Auth, sc.StreamWindows, progress, wk.rng)
		var accepted, rejected uint64
		out := wk.execute(kind, len(samples), func(s *transport.Session) error {
			accepted, rejected = 0, 0
			st, err := s.StartStream(id)
			if err != nil {
				return err
			}
			for _, sample := range samples {
				if err = st.Push(sample); err != nil {
					break
				}
			}
			if err == nil {
				for range samples {
					var dec transport.AuthDecision
					if dec, err = st.Recv(); err != nil {
						break
					}
					if dec.Accepted {
						accepted++
					} else {
						rejected++
					}
				}
			}
			// Close drains and hands the connection back on success; on a
			// poisoned stream it tears the session down, and attemptLoop's
			// error path drops it from the pool.
			closeErr := st.Close()
			if err != nil {
				return err
			}
			return closeErr
		})
		if out == outcomeOK {
			wk.tallies[kind].accepted += accepted
			wk.tallies[kind].rejected += rejected
		}
	case opEnroll:
		tail := sc.Users - sc.ScoredUsers
		if tail <= 0 {
			// Nothing left to grow; degrade to a reenroll of the cohort.
			runOp(sc, w, wk, opReenroll, progress, freshTail, onEnrolled)
			return
		}
		idx := sc.ScoredUsers + int(freshTail.Add(1)-1)%tail
		fid := userID(sc.Name, idx)
		ft := w.Templates[idx%len(w.Templates)]
		enroll := NewPersona(idx).ApplyAll(fid, ft.Enroll)
		out := wk.execute(kind, 1, func(s *transport.Session) error {
			_, err := s.Enroll(fid, enroll)
			return err
		})
		if out == outcomeOK {
			onEnrolled(fid)
		}
	case opReenroll:
		// Upload the user's recent behaviour, replacing stale windows —
		// the retraining upload of Section V-I.
		end := driftIndex(progress, len(t.Auth), wk.rng) + 1
		beg := end - 12
		if beg < 0 {
			beg = 0
		}
		recent := persona.ApplyAll(id, t.Auth[beg:end])
		wk.execute(kind, 1, func(s *transport.Session) error {
			_, err := s.ReplaceEnrollment(id, recent)
			return err
		})
	case opTrain:
		wk.execute(kind, 1, func(s *transport.Session) error {
			_, err := s.Train(id, stageTrainParams(sc.Seed+int64(cohort)))
			return err
		})
	}
}

// burstSamples picks n consecutive genuine windows ending at the run's
// drift position — the shape of a device uploading its backlog in one
// burst.
func burstSamples(persona Persona, id string, pool []features.WindowSample, n int, progress float64, rng *rand.Rand) []features.WindowSample {
	end := driftIndex(progress, len(pool), rng) + 1
	beg := end - n
	if beg < 0 {
		beg = 0
	}
	return persona.ApplyAll(id, pool[beg:end])
}

// buildReport merges the worker tallies into the published report.
func buildReport(sc Scenario, workers []*worker, stageSeconds, wall float64) *Report {
	rep := &Report{
		Scenario:     sc.Name,
		Description:  sc.Description,
		Seed:         sc.Seed,
		Users:        sc.Users,
		ScoredUsers:  sc.ScoredUsers,
		Workers:      sc.Workers,
		Cluster:      sc.Cluster,
		Network:      sc.Network,
		StageSeconds: round4(stageSeconds),
		WallSeconds:  round4(wall),
		Ops:          make(map[string]*OpReport),
	}
	for kind := 0; kind < opKinds; kind++ {
		var merged tally
		for _, wk := range workers {
			t := &wk.tallies[kind]
			merged.hist.Merge(&t.hist)
			merged.ok += t.ok
			merged.errs += t.errs
			merged.busy += t.busy
			merged.redirects += t.redirects
			merged.accepted += t.accepted
			merged.rejected += t.rejected
			if merged.errSample == "" {
				merged.errSample = t.errSample
			}
		}
		if merged.hist.Count() == 0 {
			continue
		}
		rep.Ops[opNames[kind]] = &OpReport{
			Latency:     merged.hist.Summarize(),
			OK:          merged.ok,
			Errors:      merged.errs,
			Busy:        merged.busy,
			Redirects:   merged.redirects,
			Accepted:    merged.accepted,
			Rejected:    merged.rejected,
			ErrorSample: merged.errSample,
		}
		rep.TotalOps += merged.hist.Count()
		rep.Errors += merged.errs
		rep.Redirects += merged.redirects
		rep.Busy += merged.busy
	}
	if wall > 0 {
		rep.Throughput = round4(float64(rep.TotalOps) / wall)
	}
	if rep.TotalOps > 0 {
		rep.ErrorRate = round4(float64(rep.Errors) / float64(rep.TotalOps))
	}
	// Genuine windows flow through three op shapes — single authenticate,
	// batch bursts and streams — so the accept fraction pools all of them.
	var genAccepted, genRejected uint64
	for _, kind := range [...]int{opAuth, opBatch, opStream} {
		if o := rep.Ops[opNames[kind]]; o != nil {
			genAccepted += o.Accepted
			genRejected += o.Rejected
		}
	}
	if genAccepted+genRejected > 0 {
		rep.GenuineAccept = round4(float64(genAccepted) / float64(genAccepted+genRejected))
	}
	if mim := rep.Ops[opNames[opMimic]]; mim != nil && mim.Accepted+mim.Rejected > 0 {
		rep.MimicAccept = round4(float64(mim.Accepted) / float64(mim.Accepted+mim.Rejected))
	}
	return rep
}

// attachStats snapshots the server's retrain counters onto the report;
// failures are non-fatal (the target may have been killed mid-run).
func attachStats(rep *Report, opts RunOptions) {
	addr := opts.StatsAddr
	if addr == "" {
		addr = opts.Addr
	}
	client, err := transport.NewClient(transport.ClientConfig{Addr: addr, Key: opts.Key, Timeout: opts.Timeout})
	if err != nil {
		return
	}
	if stats, err := client.FullStats(); err == nil {
		rep.Retrain = stats.Retrain
	}
}
