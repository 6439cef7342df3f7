package replication

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
	"smarteryou/internal/store"
	"smarteryou/internal/transport"
)

var testKey = []byte("replication-test-key")

// fakeSamples builds deterministic feature windows without the sensing
// pipeline; the store and the wire treat them opaquely.
func fakeSamples(user string, n int, base float64) []features.WindowSample {
	sf := func(v float64) features.SensorFeatures {
		return features.SensorFeatures{
			Mean: v, Var: 1 + v/10, Max: v + 2, Min: v - 2, Ran: 4,
			Peak: v, PeakF: 1 + v/100, Peak2: v / 2, Peak2F: 2,
		}
	}
	out := make([]features.WindowSample, n)
	for i := range out {
		v := base + float64(i)*0.1
		out[i] = features.WindowSample{
			UserID:  user,
			Context: sensing.ContextStationaryUse,
			Day:     float64(i) / 10,
			Phone:   features.DeviceFeatures{Acc: sf(v), Gyr: sf(v + 1)},
			Watch:   features.DeviceFeatures{Acc: sf(v + 2), Gyr: sf(v + 3)},
		}
	}
	return out
}

func openStore(t *testing.T, dir string, opt store.Options) *store.Store {
	t.Helper()
	s, err := store.Open(dir, opt)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return s
}

func startLeader(t *testing.T, st *store.Store, advertise string) (*Leader, string) {
	t.Helper()
	l, err := NewLeader(LeaderConfig{Store: st, Key: testKey, AdvertiseAddr: advertise, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewLeader: %v", err)
	}
	addr, err := l.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return l, addr.String()
}

// waitConverged polls until the follower store's cursors match want.
func waitConverged(t *testing.T, follower *store.Store, want []uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := follower.ShardLastSeqs()
		if reflect.DeepEqual(got, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: have %v, want %v", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// buildFixture trains a small real context detector over synthetic users
// so the follower can serve end-to-end authenticate calls.
func buildFixture(t *testing.T) (*ctxdetect.Detector, map[string][]features.WindowSample) {
	t.Helper()
	pop, err := sensing.NewPopulation(5, 777)
	if err != nil {
		t.Fatalf("NewPopulation: %v", err)
	}
	byUser := make(map[string][]features.WindowSample)
	var ctxTrain []features.WindowSample
	for i, u := range pop.Users {
		samples, err := features.Collect(u, features.CollectOptions{
			WindowSeconds:  6,
			SessionSeconds: 60,
			Sessions:       1,
			Seed:           int64(10 + i),
		})
		if err != nil {
			t.Fatalf("Collect: %v", err)
		}
		byUser[u.ID] = samples
		ctxTrain = append(ctxTrain, samples...)
	}
	det, err := ctxdetect.Train(ctxdetect.FromSamples(ctxTrain), ctxdetect.Config{Seed: 1, Trees: 10})
	if err != nil {
		t.Fatalf("ctxdetect.Train: %v", err)
	}
	return det, byUser
}

// TestLeaderFollowerFailover is the end-to-end acceptance path: a leader
// serves enrollments and a trained model, a follower converges to the
// same per-shard sequences and serves authenticate and fetch-model while
// redirecting writes, and after the leader dies the promoted follower
// accepts new enrollments with monotonically continuing sequences.
func TestLeaderFollowerFailover(t *testing.T) {
	det, byUser := buildFixture(t)

	leaderStore := openStore(t, t.TempDir(), store.Options{Shards: 2})
	leaderSrv, err := transport.NewServer(transport.ServerConfig{
		Key: testKey, Detector: det, Store: leaderStore, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("NewServer leader: %v", err)
	}
	leaderClientAddr, err := leaderSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start leader: %v", err)
	}
	leader, replAddr := startLeader(t, leaderStore, leaderClientAddr.String())

	leaderClient, err := transport.NewClient(transport.ClientConfig{Addr: leaderClientAddr.String(), Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	for id, samples := range byUser {
		if _, err := leaderClient.Enroll(id, samples); err != nil {
			t.Fatalf("Enroll %s: %v", id, err)
		}
	}
	if _, version, err := leaderClient.TrainVersioned("user-00", transport.TrainParams{Seed: 1}); err != nil {
		t.Fatalf("TrainVersioned: %v", err)
	} else if version != 1 {
		t.Fatalf("trained version %d, want 1", version)
	}

	// Follower: store, read-only server, replication stream.
	followerStore := openStore(t, t.TempDir(), store.Options{Shards: 2})
	followerSrv, err := transport.NewServer(transport.ServerConfig{
		Key: testKey, Detector: det, Store: followerStore, Logf: t.Logf,
		Follower: true,
	})
	if err != nil {
		t.Fatalf("NewServer follower: %v", err)
	}
	follower, err := StartFollower(FollowerConfig{
		Store:        followerStore,
		Key:          testKey,
		LeaderAddr:   replAddr,
		Logf:         t.Logf,
		OnLeaderAddr: followerSrv.SetLeaderAddr,
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	followerAddr, err := followerSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start follower: %v", err)
	}
	waitConverged(t, followerStore, leaderStore.ShardLastSeqs())
	if !reflect.DeepEqual(leaderStore.Population(), followerStore.Population()) {
		t.Fatalf("populations diverged after convergence")
	}

	// The leader sees the follower's progress: lag drains to zero.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := leader.Status()
		if len(st.Followers) == 1 && st.Followers[0].Lag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader never saw the follower drain: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The follower serves reads and bounces writes to the leader.
	followerClient, err := transport.NewClient(transport.ClientConfig{Addr: followerAddr.String(), Key: testKey})
	if err != nil {
		t.Fatalf("NewClient follower: %v", err)
	}
	if bundle, version, err := followerClient.FetchModel("user-00", 0); err != nil {
		t.Fatalf("follower FetchModel: %v", err)
	} else if version != 1 || bundle == nil {
		t.Fatalf("follower served model version %d (bundle nil: %v), want 1", version, bundle == nil)
	}
	leaderDec, err := leaderClient.Authenticate("user-00", byUser["user-00"][0])
	if err != nil {
		t.Fatalf("leader Authenticate: %v", err)
	}
	followerDec, err := followerClient.Authenticate("user-00", byUser["user-00"][0])
	if err != nil {
		t.Fatalf("follower Authenticate: %v", err)
	}
	if !reflect.DeepEqual(leaderDec, followerDec) {
		t.Fatalf("authenticate decisions diverged: leader %+v follower %+v", leaderDec, followerDec)
	}
	var redirect *transport.RedirectError
	if _, err := followerClient.Enroll("user-00", byUser["user-00"][:1]); !errors.As(err, &redirect) {
		t.Fatalf("follower enroll err = %v, want RedirectError", err)
	} else if redirect.Leader != leaderClientAddr.String() {
		t.Fatalf("redirect to %q, want %q (learned from welcome)", redirect.Leader, leaderClientAddr)
	}

	// Kill the leader, promote the follower, and keep writing: sequence
	// numbers must continue each shard's space monotonically.
	before := followerStore.ShardLastSeqs()
	if err := leader.Close(); err != nil {
		t.Fatalf("leader.Close: %v", err)
	}
	if err := leaderSrv.Close(); err != nil {
		t.Fatalf("leaderSrv.Close: %v", err)
	}
	if err := leaderStore.Close(); err != nil {
		t.Fatalf("leaderStore.Close: %v", err)
	}
	follower.Promote()
	followerSrv.Promote()
	if st := follower.Status(); st.Role != "leader" || st.Connected {
		t.Fatalf("promoted follower status = %+v", st)
	}

	for i := 0; i < 6; i++ {
		if _, err := followerClient.Enroll("user-new", fakeSamples("user-new", 2, float64(i))); err != nil {
			t.Fatalf("promoted enroll %d: %v", i, err)
		}
	}
	after := followerStore.ShardLastSeqs()
	var grew bool
	for i := range after {
		if after[i] < before[i] {
			t.Fatalf("shard %d sequence went backwards: %d -> %d", i, before[i], after[i])
		}
		if after[i] > before[i] {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("promoted enrollments did not advance any shard cursor: %v -> %v", before, after)
	}
	if _, version, err := followerClient.TrainVersioned("user-00", transport.TrainParams{Seed: 1}); err != nil {
		t.Fatalf("promoted TrainVersioned: %v", err)
	} else if version != 2 {
		t.Fatalf("promoted train published version %d, want 2 (registry continued)", version)
	}

	if err := follower.Close(); err != nil {
		t.Fatalf("follower.Close: %v", err)
	}
	if err := followerSrv.Close(); err != nil {
		t.Fatalf("followerSrv.Close: %v", err)
	}
	if err := followerStore.Close(); err != nil {
		t.Fatalf("followerStore.Close: %v", err)
	}
}

// TestFollowerSnapshotCatchUp forces the snapshot path: the leader's log
// is compacted before the follower connects, so record replay is
// impossible and the shard ships its snapshot instead.
func TestFollowerSnapshotCatchUp(t *testing.T) {
	leaderStore := openStore(t, t.TempDir(), store.Options{SnapshotEvery: -1})
	defer func() { _ = leaderStore.Close() }()
	for i := 0; i < 10; i++ {
		if err := leaderStore.Enroll("anon-snap", fakeSamples("anon-snap", 3, float64(i)), false); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	// Compact: every record is folded into the snapshot and deleted.
	if err := leaderStore.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	leader, replAddr := startLeader(t, leaderStore, "")
	defer func() { _ = leader.Close() }()

	followerStore := openStore(t, t.TempDir(), store.Options{SnapshotEvery: -1})
	defer func() { _ = followerStore.Close() }()
	var snapshots atomic.Int64
	follower, err := StartFollower(FollowerConfig{
		Store:      followerStore,
		Key:        testKey,
		LeaderAddr: replAddr,
		Logf:       t.Logf,
		OnSnapshot: func(int) { snapshots.Add(1) },
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	defer func() { _ = follower.Close() }()

	waitConverged(t, followerStore, leaderStore.ShardLastSeqs())
	if snapshots.Load() == 0 {
		t.Fatalf("catch-up used no snapshot despite a compacted log")
	}
	if !reflect.DeepEqual(leaderStore.Population(), followerStore.Population()) {
		t.Fatalf("populations diverged after snapshot catch-up")
	}

	// The stream then resumes live records on top of the snapshot.
	if err := leaderStore.Enroll("anon-live", fakeSamples("anon-live", 2, 50), false); err != nil {
		t.Fatalf("Enroll live: %v", err)
	}
	waitConverged(t, followerStore, leaderStore.ShardLastSeqs())
	if !reflect.DeepEqual(leaderStore.Population(), followerStore.Population()) {
		t.Fatalf("populations diverged after post-snapshot records")
	}
}

// TestReplicationHammer drives concurrent enrollments while a cold
// follower catches up and tails — the -race exercise for the
// subscribe-before-scan overlap and the per-connection queues.
func TestReplicationHammer(t *testing.T) {
	leaderStore := openStore(t, t.TempDir(), store.Options{Shards: 4, NoSync: true})
	defer func() { _ = leaderStore.Close() }()
	leader, replAddr := startLeader(t, leaderStore, "")
	defer func() { _ = leader.Close() }()

	const writers, perWriter = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				user := []string{"anon-h0", "anon-h1", "anon-h2", "anon-h3", "anon-h4", "anon-h5"}[(w+i)%6]
				if err := leaderStore.Enroll(user, fakeSamples(user, 1, float64(w*1000+i)), false); err != nil {
					t.Errorf("Enroll: %v", err)
					return
				}
			}
		}(w)
	}

	// Connect mid-hammer: the follower must catch up from disk while the
	// live stream races ahead.
	followerStore := openStore(t, t.TempDir(), store.Options{Shards: 4, NoSync: true})
	defer func() { _ = followerStore.Close() }()
	follower, err := StartFollower(FollowerConfig{
		Store:      followerStore,
		Key:        testKey,
		LeaderAddr: replAddr,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	defer func() { _ = follower.Close() }()

	wg.Wait()
	waitConverged(t, followerStore, leaderStore.ShardLastSeqs())
	leaderPop, followerPop := leaderStore.Population(), followerStore.Population()
	if !reflect.DeepEqual(leaderPop, followerPop) {
		t.Fatalf("populations diverged: leader %d users, follower %d users", len(leaderPop), len(followerPop))
	}
	var total int
	for _, samples := range followerPop {
		total += len(samples)
	}
	if want := writers * perWriter; total != want {
		t.Fatalf("follower holds %d windows, want %d (duplicates or losses)", total, want)
	}
}

// TestFollowerRejectsWrongKey ensures the HMAC handshake gates the
// stream both ways.
func TestFollowerRejectsWrongKey(t *testing.T) {
	leaderStore := openStore(t, t.TempDir(), store.Options{})
	defer func() { _ = leaderStore.Close() }()
	if err := leaderStore.Enroll("anon-k", fakeSamples("anon-k", 1, 0), false); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	leader, replAddr := startLeader(t, leaderStore, "")
	defer func() { _ = leader.Close() }()

	followerStore := openStore(t, t.TempDir(), store.Options{})
	defer func() { _ = followerStore.Close() }()
	follower, err := StartFollower(FollowerConfig{
		Store:       followerStore,
		Key:         []byte("not-the-key"),
		LeaderAddr:  replAddr,
		Logf:        t.Logf,
		RedialDelay: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	defer func() { _ = follower.Close() }()

	time.Sleep(300 * time.Millisecond)
	if got := followerStore.ShardLastSeqs()[0]; got != 0 {
		t.Fatalf("wrong-key follower replicated %d records", got)
	}
	if follower.Status().Connected {
		t.Fatalf("wrong-key follower reports connected")
	}
}
