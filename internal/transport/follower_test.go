package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"smarteryou/internal/retrain"
	"smarteryou/internal/store"
)

// flipRouter is the one-owner cluster seen from a node that owns nothing:
// every write belongs to the node at owner until local flips, which is
// what a takeover does to the real router.
type flipRouter struct {
	owner string
	local atomic.Bool
}

func (r *flipRouter) RouteWrite(string) (RouteDecision, string) {
	if r.local.Load() {
		return RouteLocal, ""
	}
	return RouteRemote, r.owner
}

func (r *flipRouter) ShardMapInfo() ShardMapInfo { return ShardMapInfo{} }

func (r *flipRouter) OwnedShards() (owned, total int) {
	if r.local.Load() {
		return 1, 1
	}
	return 0, 1
}

func TestFollowerRedirectsWritesAndPromotes(t *testing.T) {
	det, byUser := buildFixture(t)

	// A leader's store provides the replicated state the follower serves.
	leaderSrv, leaderStore, leaderAddr := startPersistentServer(t, det, t.TempDir())
	defer func() {
		_ = leaderSrv.Close()
		_ = leaderStore.Close()
	}()
	leaderClient, err := NewClient(ClientConfig{Addr: leaderAddr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	for _, id := range []string{"user-00", "user-01"} {
		if _, err := leaderClient.Enroll(id, byUser[id]); err != nil {
			t.Fatalf("Enroll %s: %v", id, err)
		}
	}
	if _, _, err := leaderClient.TrainVersioned("user-00", TrainParams{Seed: 1}); err != nil {
		t.Fatalf("TrainVersioned: %v", err)
	}

	// The follower server runs over a store copied via the replication
	// surface (the network half is exercised in internal/replication).
	followerStore, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer func() { _ = followerStore.Close() }()
	for shard := 0; shard < leaderStore.ShardCount(); shard++ {
		recs, err := leaderStore.ShardRecordsSince(shard, 0)
		if err != nil {
			t.Fatalf("ShardRecordsSince: %v", err)
		}
		for _, r := range recs {
			if _, _, err := followerStore.ApplyReplicated(shard, r.Payload); err != nil {
				t.Fatalf("ApplyReplicated: %v", err)
			}
		}
	}

	router := &flipRouter{owner: leaderAddr}
	followerSrv, err := NewServer(ServerConfig{
		Key:      testKey,
		Detector: det,
		Store:    followerStore,
		Router:   router,
		ReplicationInfo: func() *ReplicationInfo {
			return &ReplicationInfo{Role: "replica", Connected: true}
		},
	})
	if err != nil {
		t.Fatalf("NewServer follower: %v", err)
	}
	addr, err := followerSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() { _ = followerSrv.Close() }()
	client, err := NewClient(ClientConfig{Addr: addr.String(), Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	// Writes bounce with the leader's address.
	var redirect *RedirectError
	if _, err := client.Enroll("user-00", byUser["user-00"][:1]); !errors.As(err, &redirect) {
		t.Fatalf("follower enroll err = %v, want RedirectError", err)
	} else if redirect.Leader != leaderAddr {
		t.Fatalf("redirect leader = %q, want %q", redirect.Leader, leaderAddr)
	}
	if _, _, err := client.FetchModel("user-00", 0); err != nil {
		t.Fatalf("follower fetch-model: %v", err)
	}
	if dec, err := client.Authenticate("user-00", byUser["user-00"][0]); err != nil {
		t.Fatalf("follower authenticate: %v", err)
	} else if dec.Context == "" {
		t.Fatalf("follower authenticate returned empty decision")
	}
	stats, err := client.FullStats()
	if err != nil {
		t.Fatalf("follower stats: %v", err)
	}
	if stats.Replication == nil || stats.Replication.Role != "replica" {
		t.Fatalf("stats replication = %+v, want replica role", stats.Replication)
	}
	if len(stats.Shards) == 0 {
		t.Fatalf("follower stats missing shards")
	}
	var total uint64
	for _, sh := range stats.Shards {
		total += sh.LastSeq
	}
	if total == 0 {
		t.Fatalf("follower stats report zero sequence cursors: %+v", stats.Shards)
	}

	// Train must redirect too: the model publishes into the owner's shard.
	if _, _, err := client.TrainVersioned("user-00", TrainParams{Seed: 1}); !errors.As(err, &redirect) {
		t.Fatalf("follower train err = %v, want RedirectError", err)
	}

	// After a takeover the same server accepts writes.
	router.local.Store(true)
	if _, err := client.Enroll("user-00", byUser["user-00"][:1]); err != nil {
		t.Fatalf("promoted enroll: %v", err)
	}
}

func TestTrainVersionedRetriesBusyOnce(t *testing.T) {
	det, byUser := buildFixture(t)

	block := make(chan struct{})
	trainTestHook = func(trainRequest) { <-block }
	defer func() { trainTestHook = nil }()

	srv, err := NewServer(ServerConfig{
		Key:             testKey,
		Detector:        det,
		Store:           openTestStore(t),
		TrainWorkers:    1,
		TrainQueueDepth: 1,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := srv.SeedPopulation(byUser); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}

	client, err := NewClient(ClientConfig{Addr: addr.String(), Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	// Saturate the pool: one job training (held by the hook), one queued.
	started := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := client.Train("user-01", TrainParams{Seed: 1})
			started <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err := client.FullStats()
		if err != nil {
			t.Fatalf("FullStats: %v", err)
		}
		if stats.Train.InFlight == 1 && stats.Train.Queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated: %+v", stats.Train)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Unblock the workers while the rejected request sleeps out its retry
	// hint, so the single retry lands on a free pool.
	go func() {
		time.Sleep(200 * time.Millisecond)
		close(block)
	}()

	bundle, _, err := client.TrainVersioned("user-00", TrainParams{Seed: 1})
	if err != nil {
		t.Fatalf("TrainVersioned after busy: %v", err)
	}
	if bundle == nil {
		t.Fatalf("TrainVersioned returned nil bundle")
	}
	for i := 0; i < 2; i++ {
		if err := <-started; err != nil {
			t.Fatalf("background train: %v", err)
		}
	}

	stats, err := client.FullStats()
	if err != nil {
		t.Fatalf("FullStats: %v", err)
	}
	if stats.Train.Rejected == 0 {
		t.Fatalf("no busy rejection recorded; the retry path never ran")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// replicateStore ships every record the follower store lacks from the
// leader store — what a replication stream does, minus the network.
func replicateStore(leader, follower *store.Store) error {
	for shard, from := range follower.ShardLastSeqs() {
		recs, err := leader.ShardRecordsSince(shard, from)
		if err != nil {
			return fmt.Errorf("ShardRecordsSince(%d, %d): %w", shard, from, err)
		}
		for _, r := range recs {
			if _, _, err := follower.ApplyReplicated(shard, r.Payload); err != nil {
				return fmt.Errorf("ApplyReplicated(%d): %w", shard, err)
			}
		}
	}
	return nil
}

// publishWithThreshold republishes the user's latest model in the store
// with every context's threshold replaced: +1e9 rejects every window,
// -1e9 accepts every window, so which version scored a window is visible
// in the decision.
func publishWithThreshold(t *testing.T, st *store.Store, anon string, threshold float64) int {
	t.Helper()
	bundle, _, err := st.LatestModel(anon)
	if err != nil {
		t.Fatalf("LatestModel: %v", err)
	}
	for _, m := range bundle.Models {
		m.Threshold = threshold
	}
	version, err := st.PublishModel(anon, bundle)
	if err != nil {
		t.Fatalf("PublishModel: %v", err)
	}
	return version
}

// TestServerFollowsStoreWithoutHooks pins the ownership rule: a server
// over a store serves whatever the store holds, however it got there.
// Everything below reaches the follower's store after NewServer and
// nothing is wired between the two.
func TestServerFollowsStoreWithoutHooks(t *testing.T) {
	det, byUser := buildFixture(t)
	openStore := func() *store.Store {
		st, err := store.Open(t.TempDir(), store.Options{Shards: 2})
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		t.Cleanup(func() { _ = st.Close() })
		return st
	}
	leaderStore, followerStore := openStore(), openStore()
	leaderSrv, err := NewServer(ServerConfig{Key: testKey, Detector: det, Store: leaderStore})
	if err != nil {
		t.Fatalf("NewServer leader: %v", err)
	}
	leaderAddr, err := leaderSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start leader: %v", err)
	}
	defer func() { _ = leaderSrv.Close() }()
	leader, err := NewClient(ClientConfig{Addr: leaderAddr.String(), Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	followerSrv, err := NewServer(ServerConfig{
		Key:      testKey,
		Detector: det,
		Store:    followerStore,
		Router:   &flipRouter{owner: leaderAddr.String()},
		Retrain:  &retrain.Config{Threshold: -1}, // monitor on, never fires
	})
	if err != nil {
		t.Fatalf("NewServer follower: %v", err)
	}
	addr, err := followerSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start follower: %v", err)
	}
	defer func() { _ = followerSrv.Close() }()
	client, err := NewClient(ClientConfig{Addr: addr.String(), Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	wantPopulation := func(leg string) {
		t.Helper()
		want := leaderStore.Stats()
		users, windows, err := client.Stats()
		if err != nil {
			t.Fatalf("%s: stats: %v", leg, err)
		}
		if users != want.Users || windows != want.Windows {
			t.Errorf("%s: follower serves %d users / %d windows, its store holds %d / %d",
				leg, users, windows, want.Users, want.Windows)
		}
	}
	owner, own := "user-00", byUser["user-00"]
	anon := anonymize(owner)
	wantDecision := func(leg string, accepted bool) {
		t.Helper()
		d, err := client.Authenticate(owner, own[0])
		if err != nil {
			t.Fatalf("%s: authenticate: %v", leg, err)
		}
		if d.Accepted != accepted {
			t.Errorf("%s: accepted = %v, want %v", leg, d.Accepted, accepted)
		}
	}

	// (a) Replicated enrolls for users the server has never heard of.
	for _, id := range []string{"user-00", "user-01"} {
		if _, err := leader.Enroll(id, byUser[id]); err != nil {
			t.Fatalf("Enroll %s: %v", id, err)
		}
	}
	if _, _, err := leader.TrainVersioned(owner, TrainParams{Seed: 1}); err != nil {
		t.Fatalf("TrainVersioned: %v", err)
	}
	publishWithThreshold(t, leaderStore, anon, -1e9) // v2 accepts everything
	if err := replicateStore(leaderStore, followerStore); err != nil {
		t.Fatal(err)
	}
	wantPopulation("replicated enroll")

	// (b) A replicated publish supersedes a bundle the server has cached
	// by serving it.
	for range 3 {
		wantDecision("v2", true)
	}
	if st, _ := followerSrv.drift.monitor.State(anon); st.Windows != 3 {
		t.Fatalf("drift monitor saw %d accepted windows under v2, want 3", st.Windows)
	}
	v3 := publishWithThreshold(t, leaderStore, anon, 1e9) // v3 rejects everything
	if err := replicateStore(leaderStore, followerStore); err != nil {
		t.Fatal(err)
	}
	wantDecision("replicated publish of v3", false)
	if _, version, err := client.FetchModel(owner, 0); err != nil || version != v3 {
		t.Errorf("fetch-model after replicated publish: version %d, err %v, want v%d", version, err, v3)
	}
	if st, _ := followerSrv.drift.monitor.State(anon); st.Windows != 0 {
		t.Errorf("drift state not reset by the superseding publish: %d windows", st.Windows)
	}

	// (c) Both shards replaced wholesale — one by a full snapshot, one by
	// a chunk delta — carrying a new user, a shrunk enrollment and v4.
	if _, err := leader.Enroll("user-02", byUser["user-02"]); err != nil {
		t.Fatalf("Enroll user-02: %v", err)
	}
	if _, err := leader.ReplaceEnrollment("user-01", byUser["user-01"][:2]); err != nil {
		t.Fatalf("ReplaceEnrollment: %v", err)
	}
	publishWithThreshold(t, leaderStore, anon, -1e9) // v4 accepts everything
	snap, _, err := leaderStore.ShardSnapshotBytes(0)
	if err != nil {
		t.Fatalf("ShardSnapshotBytes: %v", err)
	}
	if _, err := followerStore.InstallShardSnapshot(0, snap); err != nil {
		t.Fatalf("InstallShardSnapshot: %v", err)
	}
	body, _, chunks, err := leaderStore.ShardDelta(1)
	if err != nil {
		t.Fatalf("ShardDelta: %v", err)
	}
	if _, err := followerStore.InstallShardDelta(1, body, chunks); err != nil {
		t.Fatalf("InstallShardDelta: %v", err)
	}
	wantPopulation("installed snapshots")
	wantDecision("installed v4", true)
}
