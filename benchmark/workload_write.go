package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"smarteryou"
	"smarteryou/internal/cas"
	"smarteryou/internal/core"
	"smarteryou/internal/features"
	"smarteryou/internal/ml"
	"smarteryou/internal/sensing"
)

// writeWorkload is cloud-write-replicated: writes beside reads. A leader
// Authentication Server over a WAL-backed store (4 shards, last 5 model
// versions kept, default compaction cadence, fsync off: see storeOptions)
// feeds a replication leader with one in-process follower store. Each session
// owns a ring of identities and repeats a fixed cycle:
//
//	enroll (append 8 windows) -> 4 authenticates on trained users ->
//	reenroll (replace with 8 windows) -> 4 authenticates ->
//	every 8th cycle: train + full fetch-model + conditional fetch-model
//
// The ring is staged in set-up and every cycle leaves its identity with
// 8 windows again, so the population does not grow in the timed region.
type writeWorkload struct {
	cohort  *cohort
	trained []identity // staged and trained in set-up; the authenticates read these
	ring    []identity
	env     *cloudEnv
	dir     string

	clients []*smarteryou.AuthClient
	cycle   []int
	plan    []planItem
	// stored is the window count the last acknowledged write left each
	// ring identity with.
	stored    []int
	baseStats smarteryou.AuthServerStats
	// stagedWindows is the population's size when set-up ends; every
	// cycle must hand it back unchanged.
	stagedWindows int

	// What finish (drain, close, reopen, verify) found; it runs once,
	// from layers in the traced run and from verify otherwise.
	done                 bool
	attempted, failedN   int64
	trainP50ByRound      []float64
	convergeMS           []float64
	recoveryMS, diskBPW  float64
	ackedLost            int64
	reopened             *smarteryou.PopulationStore
	finishErr            error
	casStats             smarteryou.CASStats
	inputDigest, decided string
}

const (
	writeTrained     = 16
	writeRing        = 32
	authsPerHalf     = 4
	trainEveryCycles = 8
	windowsPerUpload = 8
)

var writeCohort = cohortSpec{users: writeTrained + writeRing, enrollS: 24, reenrollS: 24, genuineS: 24, mimicS: 12}

func (w *writeWorkload) sessions() int { return len(w.clients) }

func (w *writeWorkload) traffic() netSnap { return w.env.net.snap() }

func (w *writeWorkload) setup(seed int64, dataDir string) (err error) {
	w.dir = dataDir
	if w.cohort, err = buildCohort(seed, writeCohort); err != nil {
		return err
	}
	w.inputDigest = w.cohort.digest
	w.trained = make([]identity, writeTrained)
	for i := range w.trained {
		id := w.cohort.ids[i]
		id.Enroll = append(append([]features.WindowSample(nil), id.Enroll...), id.Reenroll...)
		w.trained[i] = id
	}
	w.ring = w.cohort.ids[writeTrained:]
	rng := rand.New(rand.NewSource(subSeed(seed, 6, 0)))
	w.plan = w.plan[:0]
	for k := 0; k < planPerUser; k++ {
		for u := range w.trained {
			w.plan = append(w.plan, pick(rng, &w.trained[u], u, k))
		}
	}
	staged := &cohort{ids: w.trained, detectorTrain: w.cohort.detectorTrain}
	if w.env, err = startCloud(dataDir, staged, true); err != nil {
		return err
	}
	w.stored = make([]int, len(w.ring))
	for i, id := range w.ring {
		if w.stored[i], err = w.env.admin.ReplaceEnrollment(id.ID, id.Reenroll); err != nil {
			return fmt.Errorf("stage ring %s: %w", id.ID, err)
		}
	}
	n := runtime.GOMAXPROCS(0)
	if n > len(w.ring) {
		n = len(w.ring)
	}
	w.clients = make([]*smarteryou.AuthClient, n)
	w.cycle = make([]int, n)
	for s := range w.clients {
		if w.clients[s], err = w.env.client(); err != nil {
			return err
		}
	}
	// Warm-up: two turns of each ring (so every identity has been through
	// a cycle and the first trains have published), then let retrains
	// and the follower catch up.
	var warm sessionStats
	for s := range w.clients {
		for c := 0; c < 2*len(w.ring)/n; c++ {
			if !w.oneCycle(s, &warm, nil) {
				return fmt.Errorf("warm-up cycle failed (%d failures)", warm.failed)
			}
		}
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d operations failed", warm.failed, warm.ops)
	}
	if w.baseStats, err = w.env.settle(); err != nil {
		return err
	}
	if _, err = w.env.converge(); err != nil {
		return err
	}
	w.stagedWindows = w.env.store.Stats().Windows
	return nil
}

// ringOf returns the slice of ring indexes session s owns.
func (w *writeWorkload) ringOf(s int) (from, per int) {
	per = len(w.ring) / len(w.clients)
	return s * per, per
}

type verb struct {
	span spanName
	st   *sessionStats
	rec  *recorder
	req  int
	t0   int64
}

func begin(span spanName, st *sessionStats, rec *recorder, req int) verb {
	return verb{span, st, rec, rec.begin(span, req), nowNS()}
}

// end closes the span, records the round trip and counts the request.
func (v verb) end(err error) (int64, bool) {
	v.rec.end(v.req)
	lat := nowNS() - v.t0
	v.st.ops++
	v.st.requests++
	v.st.verbs[v.span].record(lat)
	if err != nil {
		return lat, note(v.st, err)
	}
	return lat, true
}

func (w *writeWorkload) auths(s int, st *sessionStats, rec *recorder, req int, from int) bool {
	client := w.clients[s]
	for i := 0; i < authsPerHalf; i++ {
		it := &w.plan[(from+i)%len(w.plan)]
		v := begin(spanAuthRTT, st, rec, req)
		d, err := client.Authenticate(w.trained[it.user].ID, it.window)
		lat, ok := v.end(err)
		st.windows++
		st.window.record(lat)
		if err == nil {
			st.decided(it.class, d.Accepted)
		} else if !ok {
			return false
		}
	}
	return true
}

// oneCycle runs one cycle of session s; false means the session cannot
// go on.
func (w *writeWorkload) oneCycle(s int, st *sessionStats, rec *recorder) bool {
	client := w.clients[s]
	c := w.cycle[s]
	w.cycle[s]++
	from, per := w.ringOf(s)
	idx := from + c%per
	id := &w.ring[idx]
	req := rec.begin(spanRequest, -1)
	defer rec.end(req)
	planAt := (s*len(w.plan)/len(w.clients) + c*2*authsPerHalf) % len(w.plan)

	v := begin(spanEnrollRTT, st, rec, req)
	stored, err := client.Enroll(id.ID, id.Enroll)
	if _, ok := v.end(err); err != nil {
		if !ok {
			return false
		}
	} else {
		st.writes++
		w.stored[idx] = stored
		if stored != 2*windowsPerUpload {
			st.failed++
		}
	}
	if !w.auths(s, st, rec, req, planAt) {
		return false
	}
	v = begin(spanReenrollRTT, st, rec, req)
	stored, err = client.ReplaceEnrollment(id.ID, id.Reenroll)
	if _, ok := v.end(err); err != nil {
		if !ok {
			return false
		}
	} else {
		st.writes++
		w.stored[idx] = stored
		if stored != windowsPerUpload {
			st.failed++
		}
	}
	if !w.auths(s, st, rec, req, planAt+authsPerHalf) {
		return false
	}
	if c%trainEveryCycles != trainEveryCycles-1 {
		return true
	}
	// Every identity of the ring takes its turn to train, so model
	// versions pile up on all of them and keep-last-5 trims.
	target := w.ring[from+(c/trainEveryCycles)%per].ID
	v = begin(spanTrainRTT, st, rec, req)
	_, version, err := client.TrainVersioned(target, trainParams)
	if _, ok := v.end(err); err != nil {
		return ok
	}
	st.writes++
	v = begin(spanFetchRTT, st, rec, req)
	full, fetched, err := client.FetchModel(target, 0)
	if _, ok := v.end(err); err != nil {
		return ok
	}
	v = begin(spanFetchUnchangedRTT, st, rec, req)
	again, _, err := client.FetchModel(target, 0)
	if _, ok := v.end(err); err != nil {
		return ok
	}
	// The second fetch must have been answered "unchanged", which the
	// client shows by handing back the bundle it cached.
	if fetched != version || again != full {
		st.failed++
	}
	return true
}

func (w *writeWorkload) loop(s int, deadline int64, st *sessionStats, rec *recorder) {
	for nowNS() < deadline {
		if !w.oneCycle(s, st, rec) {
			return
		}
	}
}

// afterLoad runs the moment the sessions stop: the time from the last
// acknowledgement to the follower's cursors equalling the leader's.
func (w *writeWorkload) afterLoad(seg *segment) {
	d, err := w.env.converge()
	if err != nil {
		seg.failed++
		return
	}
	seg.convergeNS = int64(d)
	w.trainP50ByRound = append(w.trainP50ByRound, float64(seg.verbs[spanTrainRTT].quantile(0.5))/1e6)
	w.convergeMS = append(w.convergeMS, float64(d)/1e6)
}

func (w *writeWorkload) sampleLag(stop <-chan struct{}, into *hist) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if st := w.env.leader.Status(); len(st.Followers) > 0 {
				into.record(int64(st.Followers[0].Lag))
			}
		}
	}
}

// lost counts ring identities whose acknowledged state is not in pop.
// An identity whose last acknowledged write was the append holds the
// previous upload plus this one; only the count is checked then.
func (w *writeWorkload) lost(pop map[string][]features.WindowSample) int64 {
	var lost int64
	for i := range w.ring {
		got := pop[smarteryou.AnonymizeUser(w.ring[i].ID)]
		if len(got) != w.stored[i] {
			lost++
			continue
		}
		if w.stored[i] != windowsPerUpload {
			continue
		}
		want := w.ring[i].Reenroll
		for k := range want {
			if got[k].Phone != want[k].Phone || got[k].Watch != want[k].Watch || got[k].Context != want[k].Context {
				lost++
				break
			}
		}
	}
	return lost
}

// finish drains, closes and reopens: every acknowledged enroll and
// reenroll must be in the reopened leader store and in the reopened
// follower store, and both chunk stores must scrub clean. Reopening is
// a process-level check (the operating system's cache survives, and the
// stores run without fsync); the store's own crash tests cover power
// loss.
func (w *writeWorkload) finish(r *report) error {
	if w.done {
		return w.finishErr
	}
	w.done = true
	w.finishErr = func() error {
		if _, err := w.env.settle(); err != nil {
			return err
		}
		if _, err := w.env.converge(); err != nil {
			return err
		}
		if err := w.env.store.Snapshot(); err != nil {
			return fmt.Errorf("final compaction: %w", err)
		}
		leaderDir, followerDir := filepath.Join(w.dir, "leader"), filepath.Join(w.dir, "follower")
		st := w.env.store.Stats()
		bytesOnDisk, err := dirBytes(leaderDir)
		if err != nil {
			return err
		}
		w.diskBPW = float64(bytesOnDisk) / float64(st.Windows)
		// The population must be the size set-up left it: sessions stop
		// between cycles, and a cycle returns its identity to 8 windows.
		w.attempted++
		if st.Windows != w.stagedWindows {
			w.failedN++
			r.note("population grew in the timed region: %d windows staged, %d now", w.stagedWindows, st.Windows)
		}
		w.casStats = st.CAS
		for _, c := range w.clients {
			_ = c.Close()
		}
		if err := w.env.close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}

		// recovery_ms: OpenStore on the run's data directory, three times.
		var opens []float64
		for i := 0; i < 3; i++ {
			if w.reopened != nil {
				if err := w.reopened.Close(); err != nil {
					return err
				}
			}
			t0 := time.Now()
			if w.reopened, err = smarteryou.OpenStore(leaderDir, storeOptions); err != nil {
				return fmt.Errorf("reopen leader store: %w", err)
			}
			opens = append(opens, float64(time.Since(t0))/1e6)
		}
		w.recoveryMS = median(opens)
		w.ackedLost = w.lost(w.reopened.Population())
		scrub, err := w.reopened.ScrubCAS(false)
		if err != nil {
			return err
		}
		w.attempted += int64(len(w.ring)) + 1
		w.failedN += w.ackedLost
		if !scrub.Clean() {
			w.failedN++
			r.note("leader ScrubCAS: %d corrupt, %d missing", len(scrub.Corrupt), len(scrub.Missing))
		}

		follower, err := smarteryou.OpenStore(followerDir, storeOptions)
		if err != nil {
			return fmt.Errorf("reopen follower store: %w", err)
		}
		followerLost := w.lost(follower.Population())
		fscrub, err := follower.ScrubCAS(false)
		if err != nil {
			_ = follower.Close()
			return err
		}
		sameModels := reflect.DeepEqual(follower.ModelVersions(), w.reopened.ModelVersions())
		if err := follower.Close(); err != nil {
			return err
		}
		w.attempted += int64(len(w.ring)) + 2
		w.failedN += followerLost
		w.ackedLost += followerLost
		if !fscrub.Clean() {
			w.failedN++
			r.note("follower ScrubCAS: %d corrupt, %d missing", len(fscrub.Corrupt), len(fscrub.Missing))
		}
		if !sameModels {
			w.failedN++
			r.note("follower model registry differs from the leader's")
		}
		r.note("reopen check: %d ring identities, acked_lost %d (leader + follower), ScrubCAS clean %v/%v; recovery_ms %.2f, disk_bytes_per_window %.1f, converge_ms %v",
			len(w.ring), w.ackedLost, scrub.Clean(), fscrub.Clean(), w.recoveryMS, w.diskBPW, w.convergeMS)
		return nil
	}()
	return w.finishErr
}

// checkReads replays the interleaved reads once against the live server,
// for the decision digest and the accept-rate bands.
func (w *writeWorkload) checkReads(r *report) error {
	d := newDigest()
	var offered, accepted [numClasses]int64
	for i := range w.plan {
		it := &w.plan[i]
		dec, err := w.env.admin.Authenticate(w.trained[it.user].ID, it.window)
		if err != nil {
			return fmt.Errorf("verify authenticate: %w", err)
		}
		d.decision(dec.Accepted, dec.Context)
		offered[it.class]++
		if dec.Accepted {
			accepted[it.class]++
		}
	}
	w.decided = d.hex()
	w.attempted += checkBands(r, "interleaved reads", offered, accepted, false, &w.failedN)
	return nil
}

func (w *writeWorkload) verify(r *report) (attempted, failed int64, err error) {
	r.InputDigest = w.inputDigest
	if !w.done {
		if err := w.checkReads(r); err != nil {
			return w.attempted, w.failedN, err
		}
	}
	r.DecisionDigest = w.decided
	if err := w.finish(r); err != nil {
		return w.attempted, w.failedN, err
	}
	if n := len(w.trainP50ByRound); n >= 2 {
		r.note("train p50 in the first segment %.3f ms, in the last %.3f ms (population: %d windows throughout)",
			w.trainP50ByRound[0], w.trainP50ByRound[n-1], w.stagedWindows)
	}
	return w.attempted, w.failedN, nil
}

func (w *writeWorkload) layers(r *report, ref, traced *segment) error {
	if _, err := trafficMetrics(r, w.env, w.baseStats, ref, traced); err != nil {
		return err
	}
	if _, err := wireProbes(r, w.env, &w.trained[0]); err != nil {
		return err
	}
	p50 := func(s spanName) float64 { return float64(traced.verbs[s].quantile(0.5)) }
	r.set("transport.enroll_rtt_p50_us", p50(spanEnrollRTT)/1e3)
	r.set("transport.reenroll_rtt_p50_us", p50(spanReenrollRTT)/1e3)
	r.set("transport.train_rtt_p50_ms", p50(spanTrainRTT)/1e6)
	r.set("transport.train_rtt_p95_ms", float64(traced.verbs[spanTrainRTT].quantile(0.95))/1e6)
	r.set("transport.fetch_model_rtt_p50_us", p50(spanFetchRTT)/1e3)
	r.set("transport.fetch_model_unchanged_rtt_p50_us", p50(spanFetchUnchangedRTT)/1e3)
	r.set("replication.lag_records_p50", float64(traced.lag.quantile(0.5)))

	// The write path as its user sees it, from the traced segment (the
	// spans cost well under 1 % here; trace.overhead_ratio says how much).
	r.set("enroll_p50_us", p50(spanEnrollRTT)/1e3)
	r.set("enroll_p99_us", float64(traced.verbs[spanEnrollRTT].quantile(0.99))/1e3)
	r.set("train_p50_ms", p50(spanTrainRTT)/1e6)
	r.set("writes_per_s", float64(traced.writes)/traced.wall.Seconds())
	r.set("converge_ms", float64(traced.convergeNS)/1e6)

	if err := w.trainProbes(r); err != nil {
		return err
	}
	scratch := filepath.Join(w.dir, "scratch")
	if err := storeProbes(r, scratch, w); err != nil {
		return err
	}
	fsync, err := fsyncProbeUS(w.dir, 50)
	if err != nil {
		return err
	}
	r.set("env.fsync_probe_us", fsync)

	e2e := float64(ref.verbs[spanEnrollRTT].quantile(0.5)) / 1e3
	m := r.Metrics
	reconcile(r, "enroll_p50_us", e2e, []budgetLine{
		{"transport envelope (seal+open), request and response", 2 * m["transport.envelope_ns"] / 1e3},
		{"transport frame (write+read), request and response", 2 * m["transport.frame_ns"] / 1e3},
		{fmt.Sprintf("features window codec x %d", windowsPerUpload), windowsPerUpload * m["features.codec_ns"] / 1e3},
		{fmt.Sprintf("store enroll without fsync (a durable one waits %.1f us more for the device)", m["store.fsync_wait_us"]), m["store.enroll_nosync_us"]},
	})

	if err := w.checkReads(r); err != nil {
		return err
	}
	if err := w.finish(r); err != nil {
		return err
	}
	r.set("recovery_ms", w.recoveryMS)
	r.set("disk_bytes_per_window", w.diskBPW)
	r.set("acked_lost", float64(w.ackedLost))
	r.set("cas.disk_bytes", float64(w.casStats.DiskBytes))
	r.set("cas.disk_chunks", float64(w.casStats.DiskChunks))
	return w.catchUpProbes(r)
}

// trainProbes times training at the sizes this workload produces: one
// ring identity's 8 windows against everybody else's.
func (w *writeWorkload) trainProbes(r *report) error {
	legit := w.ring[0].Reenroll
	var impostor []features.WindowSample
	for _, id := range w.trained {
		impostor = append(impostor, id.Enroll...)
	}
	for _, id := range w.ring[1:] {
		impostor = append(impostor, id.Reenroll...)
	}
	cfg := core.TrainConfig{Mode: trainParams.Mode, Seed: trainParams.Seed}
	bundle, err := core.Train(legit, impostor, cfg)
	if err != nil {
		return err
	}
	r.set("core.train_ms", probeNS(4*probeBudget, func() { _, _ = core.Train(legit, impostor, cfg) })/1e6)
	blob, err := bundle.Marshal()
	if err != nil {
		return err
	}
	r.set("core.bundle_marshal_us", probeNS(probeBudget, func() { _, _ = bundle.Marshal() })/1e3)
	r.set("core.bundle_bytes", float64(len(blob)))

	// One context's training matrix, as core.Train hands it to the
	// kernel ridge regression.
	var x [][]float64
	var y []bool
	add := func(ws []features.WindowSample, label bool) {
		for _, s := range ws {
			if s.Context.Coarse() == sensing.CoarseMoving {
				x = append(x, s.Vector(true))
				y = append(y, label)
			}
		}
	}
	add(legit, true)
	add(impostor, false)
	r.set("ml.krr_train_us", probeNS(2*probeBudget, func() { _ = ml.NewKRR(1).Fit(x, y) })/1e3)
	r.note("training matrix per context: %d x %d", len(x), len(x[0]))
	return nil
}

// catchUpProbes runs against the reopened, compacted leader store: a
// cold follower catching up by chunk delta, another by full snapshots,
// and the first one reconnecting warm after the leader has moved on.
func (w *writeWorkload) catchUpProbes(r *report) error {
	leader, err := smarteryou.NewReplicationLeader(smarteryou.ReplicationLeaderConfig{Store: w.reopened, Key: benchKey})
	if err != nil {
		return err
	}
	defer leader.Close()
	addr, err := leader.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	catchUp := func(dir string, disableDelta bool) (time.Duration, error) {
		st, err := smarteryou.OpenStore(dir, storeOptions)
		if err != nil {
			return 0, err
		}
		defer st.Close()
		t0 := time.Now()
		f, err := smarteryou.StartReplicationFollower(smarteryou.ReplicationFollowerConfig{
			Store: st, Key: benchKey, LeaderAddr: addr.String(), DisableDelta: disableDelta,
		})
		if err != nil {
			return 0, err
		}
		defer f.Close()
		deadline := t0.Add(20 * time.Second)
		for !reflect.DeepEqual(st.ShardLastSeqs(), w.reopened.ShardLastSeqs()) {
			if time.Now().After(deadline) {
				return 0, errors.New("catch-up never converged")
			}
			time.Sleep(100 * time.Microsecond)
		}
		return time.Since(t0), nil
	}
	coldDir := filepath.Join(w.dir, "cold-follower")
	cold, err := catchUp(coldDir, false)
	if err != nil {
		return fmt.Errorf("cold catch-up: %w", err)
	}
	afterCold := leader.Status()
	r.set("replication.cold_catchup_ms", float64(cold)/1e6)
	if _, err := catchUp(filepath.Join(w.dir, "full-follower"), true); err != nil {
		return fmt.Errorf("full-snapshot catch-up: %w", err)
	}
	r.set("replication.full_catchup_bytes", float64(leader.Status().CatchupFullBytes))

	// The leader moves on a little and compacts; the first follower's
	// cursor is now behind a compacted log and it reconnects warm.
	late := w.ring[0]
	if err := w.reopened.Enroll(smarteryou.AnonymizeUser("late-"+late.ID), late.Enroll, false); err != nil {
		return err
	}
	if err := w.reopened.Snapshot(); err != nil {
		return err
	}
	if _, err := catchUp(coldDir, false); err != nil {
		return fmt.Errorf("warm reconnect: %w", err)
	}
	warm := leader.Status()
	r.set("replication.delta_catchup_bytes", float64(warm.CatchupDeltaBytes-afterCold.CatchupDeltaBytes))
	r.set("replication.delta_saved_bytes", float64(warm.CatchupDeltaSavedBytes-afterCold.CatchupDeltaSavedBytes))
	r.note("catch-up: cold by delta %d bytes in %.1f ms, cold by full snapshots %d bytes, warm reconnect %d bytes shipped and %d saved",
		afterCold.CatchupDeltaBytes, float64(cold)/1e6, warm.CatchupFullBytes,
		warm.CatchupDeltaBytes-afterCold.CatchupDeltaBytes, warm.CatchupDeltaSavedBytes-afterCold.CatchupDeltaSavedBytes)
	return nil
}

func (w *writeWorkload) teardown() error {
	var first error
	for _, c := range w.clients {
		if c != nil {
			_ = c.Close()
		}
	}
	if w.env != nil {
		first = w.env.close()
	}
	if w.reopened != nil {
		if err := w.reopened.Close(); err != nil && first == nil {
			first = err
		}
		w.reopened = nil
	}
	return first
}

// storeProbes calls the store and the chunk store directly, on scratch
// directories next to the run's data and with the server's options.
func storeProbes(r *report, dir string, w *writeWorkload) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	opt := storeOptions
	opt.NoSync = false     // this is where the device is measured
	opt.SnapshotEvery = -1 // the probe compacts when it says so
	users := make([]string, len(w.ring))
	for i := range users {
		users[i] = smarteryou.AnonymizeUser(w.ring[i].ID)
	}
	const enrolls = 192
	enrollP50 := func(st *smarteryou.PopulationStore) (float64, error) {
		var h hist
		for i := 0; i < enrolls; i++ {
			// like the workload: append, then replace
			k := (i / 2) % len(users)
			ws, replace := w.ring[k].Enroll, false
			if i%2 == 1 {
				ws, replace = w.ring[k].Reenroll, true
			}
			t0 := nowNS()
			if err := st.Enroll(users[k], ws, replace); err != nil {
				return 0, err
			}
			h.record(nowNS() - t0)
		}
		return float64(h.quantile(0.5)) / 1e3, nil
	}

	nosyncOpt := opt
	nosyncOpt.NoSync = true
	nosync, err := smarteryou.OpenStore(filepath.Join(dir, "nosync"), nosyncOpt)
	if err != nil {
		return err
	}
	nosyncUS, err := enrollP50(nosync)
	if cerr := nosync.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	syncDir := filepath.Join(dir, "sync")
	st, err := smarteryou.OpenStore(syncDir, opt)
	if err != nil {
		return err
	}
	defer func() {
		if st != nil {
			_ = st.Close()
		}
	}()
	syncUS, err := enrollP50(st)
	if err != nil {
		return err
	}
	r.set("store.enroll_us", syncUS)
	r.set("store.enroll_nosync_us", nosyncUS)
	r.set("store.fsync_wait_us", syncUS-nosyncUS)
	r.set("store.wal_bytes_per_window", float64(st.Stats().WALBytes)/float64(enrolls*windowsPerUpload))

	// The registry: publish successive models of a few users, so that
	// keep-last-5 trims and versions share chunks.
	var impostor []features.WindowSample
	for _, id := range w.trained {
		impostor = append(impostor, id.Enroll...)
	}
	cfg := core.TrainConfig{Mode: trainParams.Mode, Seed: trainParams.Seed}
	const publishUsers, publishVersions = 8, 8
	var publish hist
	var naive int64
	var lastBlob []byte
	for v := 0; v < publishVersions; v++ {
		for u := 0; u < publishUsers; u++ {
			// Successive versions of a user train on a population that
			// has moved a little, as retrains on a live server do.
			bundle, err := core.Train(w.ring[u].Reenroll, impostor[v*windowsPerUpload:], cfg)
			if err != nil {
				return err
			}
			t0 := nowNS()
			if _, err := st.PublishModel(users[u], bundle); err != nil {
				return err
			}
			publish.record(nowNS() - t0)
		}
	}
	r.set("store.publish_model_us", float64(publish.quantile(0.5))/1e3)
	r.set("store.latest_model_us", probeNS(probeBudget, func() { _, _, _ = st.LatestModel(users[0]) })/1e3)
	for u := 0; u < publishUsers; u++ {
		for v := publishVersions - storeOptions.KeepModelVersions + 1; v <= publishVersions; v++ {
			blob, _, _, err := st.ModelBlobAt(users[u], v)
			if err != nil {
				return fmt.Errorf("kept version %d of %s: %w", v, users[u], err)
			}
			naive += int64(len(blob))
			lastBlob = blob
		}
	}

	// Reopen replays the whole log; then compact and see what the
	// models cost on disk against one copy per kept version.
	if err := st.Close(); err != nil {
		st = nil
		return err
	}
	t0 := time.Now()
	st, err = smarteryou.OpenStore(syncDir, opt)
	if err != nil {
		return err
	}
	r.set("store.open_ms", float64(time.Since(t0))/1e6)
	r.set("store.recovery_replayed", float64(st.Stats().Recovery.Replayed))
	t0 = time.Now()
	if err := st.Snapshot(); err != nil {
		return err
	}
	r.set("store.snapshot_ms", float64(time.Since(t0))/1e6)
	modelBytes, err := modelChunkBytes(st, users[:publishUsers])
	if err != nil {
		return err
	}
	if modelBytes > 0 {
		r.set("cas.dedup_ratio", float64(naive)/float64(modelBytes))
	}

	// The chunk store on its own.
	cs, err := cas.Open(filepath.Join(dir, "cas"), false)
	if err != nil {
		return err
	}
	r.set("cas.put_us", probeNS(probeBudget, func() { cs.Release(cs.Put(lastBlob)) })/1e3)
	const sweepBlobs = 64
	for i := 0; i < sweepBlobs; i++ {
		blob := append(append([]byte(nil), lastBlob...), byte(i), byte(i>>8))
		blob[i%len(lastBlob)] ^= 0x5a
		if _, err := cs.WriteBlob("probe", blob); err != nil {
			return err
		}
	}
	cs.Unprotect("probe")
	t0 = time.Now()
	removed, _ := cs.Sweep()
	r.set("cas.sweep_ms", float64(time.Since(t0))/1e6)
	if removed == 0 {
		return errors.New("cas sweep probe removed nothing")
	}
	return nil
}

// modelChunkBytes is what the kept model versions of the given users
// occupy in the chunk store: the distinct chunks their manifests name.
func modelChunkBytes(st *smarteryou.PopulationStore, users []string) (int64, error) {
	seen := map[cas.Hash]struct{}{}
	var total int64
	for _, u := range users {
		_, _, latest, err := st.LatestModelBlob(u)
		if err != nil {
			return 0, err
		}
		for v := latest; v > latest-storeOptions.KeepModelVersions && v >= 1; v-- {
			blob, _, _, err := st.ModelBlobAt(u, v)
			if err != nil {
				return 0, err
			}
			m, parts := cas.ManifestOf(blob)
			for i, c := range m.Chunks {
				if _, dup := seen[c.Hash]; !dup {
					seen[c.Hash] = struct{}{}
					total += int64(len(parts[i]))
				}
			}
		}
	}
	return total, nil
}
