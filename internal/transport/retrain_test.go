package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/retrain"
	"smarteryou/internal/sensing"
	"smarteryou/internal/store"
)

// collectDriftDay records usage in both contexts at a specific drift day
// (the drift scenario of Section V-I).
func collectDriftDay(t *testing.T, u *sensing.User, day, seconds float64) []features.WindowSample {
	t.Helper()
	var out []features.WindowSample
	for ci, ctx := range []sensing.Context{sensing.ContextStationaryUse, sensing.ContextMovingUse} {
		got, err := features.Record(sensing.Session{
			User:    u,
			Context: ctx,
			Day:     day,
			Seconds: seconds / 2,
			Seed:    int64(day*1000) + int64(ci)*17 + 3,
		}, 6)
		if err != nil {
			t.Fatalf("record: %v", err)
		}
		out = append(out, got...)
	}
	return out
}

// driftServerFixture builds an owner whose behaviour drifts hard by day
// 10 (same deterministic population as the core refresh tests), the rest
// of the population as impostors, and a context detector.
func driftServerFixture(t *testing.T) (owner *sensing.User, enroll []features.WindowSample, impostors map[string][]features.WindowSample, det *ctxdetect.Detector) {
	t.Helper()
	pop, err := sensing.NewPopulation(6, 99)
	if err != nil {
		t.Fatalf("population: %v", err)
	}
	owner = pop.Users[0]
	impostors = make(map[string][]features.WindowSample)
	var all []features.WindowSample
	for i, u := range pop.Users {
		if u == owner {
			continue
		}
		s, err := features.Collect(u, features.CollectOptions{SessionSeconds: 60, Sessions: 1, Seed: int64(500 + i)})
		if err != nil {
			t.Fatalf("collect impostor: %v", err)
		}
		impostors[u.ID] = s
		all = append(all, s...)
	}
	enroll = collectDriftDay(t, owner, 0, 240)
	all = append(all, enroll...)
	det, err = ctxdetect.Train(ctxdetect.FromSamples(all), ctxdetect.Config{Seed: 1, Trees: 10})
	if err != nil {
		t.Fatalf("ctxdetect.Train: %v", err)
	}
	return owner, enroll, impostors, det
}

// waitForStats polls the server's stats until cond holds.
func waitForStats(t *testing.T, client *Client, what string, timeout time.Duration, cond func(ServerStats) bool) ServerStats {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := client.FullStats()
		if err != nil {
			t.Fatalf("stats while waiting for %s: %v", what, err)
		}
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats %+v retrain %+v", what, st, st.Retrain)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// authBatch authenticates every window and returns the mean confidence
// score and the accepted fraction.
func authBatch(t *testing.T, sess *Session, userID string, windows []features.WindowSample) (mean, acceptFrac float64) {
	t.Helper()
	accepted := 0
	for _, w := range windows {
		d, err := sess.Authenticate(userID, w)
		if err != nil {
			t.Fatalf("authenticate: %v", err)
		}
		mean += d.Score
		if d.Accepted {
			accepted++
		}
	}
	return mean / float64(len(windows)), float64(accepted) / float64(len(windows))
}

// TestDriftRetrainEndToEnd is the headline acceptance scenario: a user's
// behaviour drifts over simulated days, served confidence decays, and the
// server notices and retrains entirely on its own — no Train request, no
// operator action — after which accuracy recovers to near the
// fresh-enrollment baseline. Drift state is also required to survive a
// server restart.
func TestDriftRetrainEndToEnd(t *testing.T) {
	owner, enroll, impostors, det := driftServerFixture(t)

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	// The paper's retraining trigger: EWMA of accepted confidence scores
	// sinking below epsilon_CS = 0.2 (scores are threshold-relative, so
	// acceptance is score > 0 and a fresh model sits near 1).
	rcfg := &retrain.Config{
		Threshold:     0.2,
		Smoothing:     0.25,
		MinWindows:    8,
		Cooldown:      200 * time.Millisecond,
		Budget:        1,
		RecentWindows: 160,
		FlushEvery:    16,
		BusyBackoff:   20 * time.Millisecond,
	}
	srv, err := NewServer(ServerConfig{Key: testKey, Detector: det, Store: st, Retrain: rcfg})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	client, err := NewClient(ClientConfig{Addr: addr.String(), Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if err := srv.SeedPopulation(impostors); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}

	// Enrollment day: upload windows, train the initial model, and
	// establish the fresh-model baseline.
	if _, err := client.Enroll(owner.ID, enroll); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	params := TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: 2}
	if _, err := client.Train(owner.ID, params); err != nil {
		t.Fatalf("train: %v", err)
	}
	sess, err := client.NewSession()
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer sess.Close()
	baseMean, baseAccept := authBatch(t, sess, owner.ID, enroll[:20])
	if baseMean <= rcfg.Threshold {
		t.Fatalf("fresh model already below drift threshold: mean %.3f", baseMean)
	}

	// Live through the drift: each half-day the phone uploads its newest
	// windows (keeping the server's population current) and authenticates
	// them. Nothing ever calls Train again.
	fired := false
	lastDay := 0.0
	for day := 0.5; day <= 12; day += 0.5 {
		windows := collectDriftDay(t, owner, day, 120)
		if _, err := client.Enroll(owner.ID, windows); err != nil {
			t.Fatalf("enroll day %.1f: %v", day, err)
		}
		authBatch(t, sess, owner.ID, windows)
		lastDay = day
		fs, err := client.FullStats()
		if err != nil {
			t.Fatalf("stats day %.1f: %v", day, err)
		}
		if fs.Retrain == nil {
			t.Fatal("stats carry no retrain section despite Retrain config")
		}
		if fs.Retrain.Completed >= 1 {
			fired = true
			break
		}
	}
	if !fired {
		// The candidate may have fired on the last windows; give the
		// budgeted worker a moment to finish.
		waitForStats(t, client, "a completed scheduled retrain", 30*time.Second, func(fs ServerStats) bool {
			return fs.Retrain != nil && fs.Retrain.Completed >= 1
		})
	}

	// The recovered model must score the user's *current* behaviour close
	// to the fresh-enrollment baseline, with zero operator action.
	eval := collectDriftDay(t, owner, lastDay+0.25, 120)
	gotMean, gotAccept := authBatch(t, sess, owner.ID, eval)
	t.Logf("post-retrain mean score %.3f, accept %.2f (baseline %.3f, %.2f)", gotMean, gotAccept, baseMean, baseAccept)
	if gotMean < baseMean/2 {
		t.Errorf("post-retrain mean score %.3f did not recover (baseline %.3f)", gotMean, baseMean)
	}
	if gotAccept < baseAccept-0.15 {
		t.Errorf("post-retrain accept rate %.2f well below baseline %.2f", gotAccept, baseAccept)
	}

	fs, err := client.FullStats()
	if err != nil {
		t.Fatalf("final stats: %v", err)
	}
	r := fs.Retrain
	if r == nil {
		t.Fatal("final stats carry no retrain section")
	}
	if r.Candidates < 1 {
		t.Errorf("no candidates counted: %+v", r)
	}
	if r.Monitored < 1 {
		t.Errorf("no users monitored: %+v", r)
	}
	if r.Flushes < 1 {
		t.Errorf("drift state never checkpointed: %+v", r)
	}

	// Restart: drift state must come back from the store registry.
	if err := sess.Close(); err != nil {
		t.Fatalf("close session: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close server: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	srv2, err := NewServer(ServerConfig{Key: testKey, Detector: det, Store: st2, Retrain: rcfg})
	if err != nil {
		t.Fatalf("reopen server: %v", err)
	}
	addr2, err := srv2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()
	client2, err := NewClient(ClientConfig{Addr: addr2.String(), Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	fs2, err := client2.FullStats()
	if err != nil {
		t.Fatalf("stats after restart: %v", err)
	}
	if fs2.Retrain == nil || fs2.Retrain.Monitored < 1 {
		t.Fatalf("drift state did not survive the restart: %+v", fs2.Retrain)
	}
}

// TestScheduledRetrainKeepsEveryContext: a user whose newest windows are
// all stationary still has a moving model after a scheduled retrain,
// because each context keeps its own newest RecentWindows windows.
func TestScheduledRetrainKeepsEveryContext(t *testing.T) {
	owner, enroll, impostors, det := driftServerFixture(t)
	rcfg := &retrain.Config{Cooldown: time.Millisecond, Budget: 1, RecentWindows: 16, BusyBackoff: 10 * time.Millisecond}
	srv, err := NewServer(ServerConfig{Key: testKey, Detector: det, Store: openTestStore(t), Retrain: rcfg})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()
	client, err := NewClient(ClientConfig{Addr: addr.String(), Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if err := srv.SeedPopulation(impostors); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}
	if _, err := client.Enroll(owner.ID, enroll); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	if _, err := client.Train(owner.ID, TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: 2}); err != nil {
		t.Fatalf("train: %v", err)
	}

	var stationary []features.WindowSample
	var moving *features.WindowSample
	for _, w := range collectDriftDay(t, owner, 1, 240) {
		if w.Context.Coarse() == sensing.CoarseStationary {
			stationary = append(stationary, w)
		} else if d, err := det.Detect(w.Phone); err == nil && d.Context == sensing.CoarseMoving && moving == nil {
			moving = &w
		}
	}
	if len(stationary) < rcfg.RecentWindows || moving == nil {
		t.Fatalf("fixture: %d stationary windows (want >= %d), moving window found: %v", len(stationary), rcfg.RecentWindows, moving != nil)
	}
	if _, err := client.Enroll(owner.ID, stationary); err != nil {
		t.Fatalf("enroll stationary: %v", err)
	}
	if queued, reason, err := client.RequestRetrain(owner.ID); err != nil || !queued {
		t.Fatalf("RequestRetrain: queued %v (%q), err %v", queued, reason, err)
	}
	waitForStats(t, client, "a completed scheduled retrain", 30*time.Second, func(fs ServerStats) bool {
		return fs.Retrain != nil && fs.Retrain.Completed >= 1
	})

	bundle, version, err := client.FetchModel(owner.ID, 0)
	if err != nil || version < 2 {
		t.Fatalf("FetchModel: version %d, err %v; want the retrained version", version, err)
	}
	for _, c := range coarseContexts {
		if bundle.Models[c.String()] == nil {
			t.Errorf("retrained bundle has no %s model", c)
		}
	}
	if _, err := client.Authenticate(owner.ID, *moving); err != nil {
		t.Errorf("moving-window authenticate after the retrain: %v", err)
	}
}

// TestDriftCheckpointDamageIsLogged: a checkpoint the registry holds but
// cannot produce is not "no checkpoint" — the server starts fresh, as it
// may (drift state is reconstructible from traffic), but says so.
func TestDriftCheckpointDamageIsLogged(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	blob := retrain.EncodeStates(map[string]retrain.UserState{
		"anon-0123456789abcdef": {EWMA: 0.4, Primed: true, Windows: 12, LastTrainUnix: 1},
	})
	if err := st.PublishDriftState(blob); err != nil {
		t.Fatalf("PublishDriftState: %v", err)
	}
	if err := st.Snapshot(); err != nil { // flush the chunk to disk
		t.Fatalf("Snapshot: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close store: %v", err)
	}
	damageFirstChunk(t, dir, blob)

	if st, err = store.Open(dir, store.Options{NoSync: true}); err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st.Close()
	var (
		mu   sync.Mutex
		logs strings.Builder
	)
	srv, err := NewServer(ServerConfig{
		Key: testKey, Detector: &ctxdetect.Detector{}, Store: st, Retrain: &retrain.Config{},
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&logs, format+"\n", args...)
		},
	})
	if err != nil {
		t.Fatalf("NewServer over a damaged checkpoint: %v", err)
	}
	defer srv.Close()
	if n := srv.drift.monitor.Count(); n != 0 {
		t.Errorf("monitor restored %d users from a damaged checkpoint", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(logs.String(), "drift state checkpoint unreadable") {
		t.Errorf("damaged checkpoint dropped silently; logs:\n%s", logs.String())
	}
}

// TestDriftFollowerDefersAndPromotedSchedules checks the replication
// stance: a node that does not own the user's shard accumulates drift
// state in its monitor but defers candidates to the owner; once it has
// taken the shard over, the same server schedules retrains from what it
// observed.
func TestDriftFollowerDefersAndPromotedSchedules(t *testing.T) {
	owner, enroll, impostors, det := driftServerFixture(t)

	// Phase 1: a plain leader populates the store with data and a model.
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	srv, err := NewServer(ServerConfig{Key: testKey, Detector: det, Store: st})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	client, err := NewClient(ClientConfig{Addr: addr.String(), Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if err := srv.SeedPopulation(impostors); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}
	if _, err := client.Enroll(owner.ID, enroll); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	if _, err := client.Train(owner.ID, TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: 2}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close leader: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// Phase 2: the same store now backs a node that owns nothing. Threshold 2 sits above
	// any achievable score, so every accepted window past MinWindows emits
	// a candidate.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	rcfg := &retrain.Config{
		Threshold:     2,
		Smoothing:     0.5,
		MinWindows:    3,
		Cooldown:      10 * time.Millisecond,
		Budget:        1,
		RecentWindows: 200,
		FlushEvery:    8,
		BusyBackoff:   10 * time.Millisecond,
	}
	router := &flipRouter{owner: "127.0.0.1:1"}
	fsrv, err := NewServer(ServerConfig{
		Key:      testKey,
		Detector: det,
		Store:    st2,
		Router:   router,
		Retrain:  rcfg,
	})
	if err != nil {
		t.Fatalf("NewServer follower: %v", err)
	}
	faddr, err := fsrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start follower: %v", err)
	}
	defer fsrv.Close()
	fclient, err := NewClient(ClientConfig{Addr: faddr.String(), Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	fsess, err := fclient.NewSession()
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer fsess.Close()

	authBatch(t, fsess, owner.ID, enroll[:12])
	fs, err := fclient.FullStats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if fs.Retrain == nil || fs.Retrain.Deferred < 1 {
		t.Fatalf("follower did not defer candidates: %+v", fs.Retrain)
	}
	if fs.Retrain.Completed != 0 {
		t.Fatalf("follower ran a retrain locally: %+v", fs.Retrain)
	}
	var redirect *RedirectError
	if _, _, err := fclient.RequestRetrain(owner.ID); !errors.As(err, &redirect) {
		t.Fatalf("retrain on follower: err = %v, want RedirectError", err)
	}

	// Takeover: the accumulated monitor state starts driving retrains.
	router.local.Store(true)
	authBatch(t, fsess, owner.ID, enroll[12:24])
	waitForStats(t, fclient, "a retrain after promotion", 30*time.Second, func(fs ServerStats) bool {
		return fs.Retrain != nil && fs.Retrain.Completed >= 1
	})
}

// TestRetrainRequestOutcomes covers the operator-facing TypeRetrain knob:
// disabled servers reject it, enabled servers queue it.
func TestRetrainRequestOutcomes(t *testing.T) {
	owner, enroll, impostors, det := driftServerFixture(t)

	// Drift disabled: the request is a hard error, not a silent no-op.
	srvOff, addrOff := startServer(t, det)
	if err := srvOff.SeedPopulation(impostors); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}
	clientOff, err := NewClient(ClientConfig{Addr: addrOff, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, err := clientOff.Enroll(owner.ID, enroll[:4]); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	var remote *RemoteError
	if _, _, err := clientOff.RequestRetrain(owner.ID); !errors.As(err, &remote) {
		t.Fatalf("retrain on drift-disabled server: err = %v, want RemoteError", err)
	}
	if fs, err := clientOff.FullStats(); err != nil || fs.Retrain != nil {
		t.Fatalf("drift-disabled stats: retrain = %+v, err = %v", fs.Retrain, err)
	}

	// Drift enabled: unknown users are rejected, enrolled users queue.
	srvOn, err := NewServer(ServerConfig{
		Key:      testKey,
		Detector: det,
		Store:    openTestStore(t),
		Retrain:  &retrain.Config{Threshold: 0.2, Cooldown: time.Hour},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addrOn, err := srvOn.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srvOn.Close()
	clientOn, err := NewClient(ClientConfig{Addr: addrOn.String(), Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, _, err := clientOn.RequestRetrain("nobody"); !errors.As(err, &remote) {
		t.Fatalf("retrain for unknown user: err = %v, want RemoteError", err)
	}
	if err := srvOn.SeedPopulation(impostors); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}
	if _, err := clientOn.Enroll(owner.ID, enroll[:4]); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	queued, reason, err := clientOn.RequestRetrain(owner.ID)
	if err != nil {
		t.Fatalf("retrain: %v", err)
	}
	if !queued {
		t.Fatalf("retrain not queued (reason %q)", reason)
	}
}

// TestRetrainRaceHammer drives authenticates, enrolls, trains, stats and
// retrain nudges concurrently against a drift-enabled durable 4-shard
// server, while replicated records land in the shards the server does not
// write — the server reads the store's live population with no copy of
// its own, so this is where a reader racing an append would show. Run with
// -race (make race-retrain); the assertions are liveness, the value is
// the detector.
func TestRetrainRaceHammer(t *testing.T) {
	owner, enroll, impostors, det := driftServerFixture(t)
	const shards = 4
	st, err := store.Open(t.TempDir(), store.Options{Shards: shards})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	srv, err := NewServer(ServerConfig{
		Key:      testKey,
		Detector: det,
		Store:    st,
		Retrain: &retrain.Config{
			// Unreachable threshold: every accepted window past MinWindows
			// emits a candidate, keeping monitor, scheduler, pool and
			// flusher all churning at once.
			Threshold:     2,
			MinWindows:    2,
			Smoothing:     0.5,
			Cooldown:      time.Millisecond,
			Budget:        2,
			RecentWindows: 120,
			FlushEvery:    4,
			BusyBackoff:   time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()
	client, err := NewClient(ClientConfig{Addr: addr.String(), Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if err := srv.SeedPopulation(impostors); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}
	if _, err := client.Enroll(owner.ID, enroll); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	if _, err := client.Train(owner.ID, TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: 2}); err != nil {
		t.Fatalf("train: %v", err)
	}

	// A peer store at the same cursors plays the owner of every shard this
	// server does not write locally (the owner's and the drift checkpoint's
	// take local writes): it enrolls there and its records are applied here.
	peer, err := store.Open(t.TempDir(), store.Options{Shards: shards})
	if err != nil {
		t.Fatalf("store.Open peer: %v", err)
	}
	defer peer.Close()
	if err := replicateStore(st, peer); err != nil {
		t.Fatal(err)
	}
	local := map[int]bool{
		store.ShardIndex(anonymize(owner.ID), shards): true,
		store.ShardIndex(store.DriftStateKey, shards): true,
	}
	var ghosts []string
	for k := 0; len(ghosts) < 3; k++ {
		if id := fmt.Sprintf("anon-ghost-%d", k); !local[store.ShardIndex(id, shards)] {
			ghosts = append(ghosts, id)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if err := peer.Enroll(ghosts[i%len(ghosts)], enroll[i:i+2], false); err != nil {
				t.Errorf("peer enroll: %v", err)
				return
			}
			if err := replicateStore(peer, st); err != nil {
				t.Errorf("replicate: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := client.Enroll(owner.ID, enroll[i:i+2]); err != nil {
				t.Errorf("enroll: %v", err)
				return
			}
			if _, err := client.Train(owner.ID, TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: int64(i), MaxPerClass: 60}); err != nil {
				t.Errorf("train: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess, err := client.NewSession()
			if err != nil {
				t.Errorf("session: %v", err)
				return
			}
			defer sess.Close()
			for i := 0; i < 25; i++ {
				w := enroll[(g*25+i)%len(enroll)]
				if _, err := sess.Authenticate(owner.ID, w); err != nil {
					t.Errorf("authenticate: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := client.FullStats(); err != nil {
					t.Errorf("stats: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			// Busy responses are fine under load; transport errors are not.
			if _, _, err := client.RequestRetrain(owner.ID); err != nil {
				var remote *RemoteError
				if !errors.As(err, &remote) {
					t.Errorf("retrain nudge: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()

	fs, err := client.FullStats()
	if err != nil {
		t.Fatalf("final stats: %v", err)
	}
	if fs.Retrain == nil || fs.Retrain.Candidates < 1 {
		t.Fatalf("hammer produced no candidates: %+v", fs.Retrain)
	}
}
