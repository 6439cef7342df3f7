package replication

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
	"smarteryou/internal/store"
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
	// OnSnapshot runs after the install has moved the cursor that
	// waitConverged polls.
	for deadline := time.Now().Add(5 * time.Second); snapshots.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
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
