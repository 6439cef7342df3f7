package replication

import (
	"reflect"
	"testing"

	"smarteryou/internal/core"
	"smarteryou/internal/store"
)

// trainBundle fits a small real model so delta catch-up carries genuine
// registry entries, not just window chunks.
func trainBundle(t testing.TB) *core.ModelBundle {
	t.Helper()
	bundle, err := core.Train(
		fakeSamples("legit", 12, 1),
		fakeSamples("impostor", 12, 9),
		core.TrainConfig{Seed: 1},
	)
	if err != nil {
		t.Fatalf("core.Train: %v", err)
	}
	return bundle
}

// seedBulk loads a leader with a population big enough that shipping it
// twice would be clearly visible in the byte counters.
func seedBulk(t testing.TB, st *store.Store, users, windows int) {
	t.Helper()
	for i := 0; i < users; i++ {
		user := []string{"anon-d0", "anon-d1", "anon-d2", "anon-d3"}[i%4]
		if err := st.Enroll(user, fakeSamples(user, windows, float64(i)), false); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if _, err := st.PublishModel("anon-d0", trainBundle(t)); err != nil {
		t.Fatalf("PublishModel: %v", err)
	}
}

// TestDeltaCatchUpShipsOnlyMissingChunks is the core delta-replication
// property: a follower that already converged once reconnects after the
// leader compacted past its cursor, declares the chunks it holds, and the
// leader ships only what is actually new — the bulk it already has stays
// home.
func TestDeltaCatchUpShipsOnlyMissingChunks(t *testing.T) {
	leaderStore := openStore(t, t.TempDir(), store.Options{Shards: 2, SnapshotEvery: -1})
	defer func() { _ = leaderStore.Close() }()
	seedBulk(t, leaderStore, 32, 12)
	if err := leaderStore.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	leader, replAddr := startLeader(t, leaderStore, "")
	defer func() { _ = leader.Close() }()

	followerStore := openStore(t, t.TempDir(), store.Options{Shards: 2, SnapshotEvery: -1})
	defer func() { _ = followerStore.Close() }()
	cfg := FollowerConfig{
		Store: followerStore, Key: testKey, LeaderAddr: replAddr, Logf: t.Logf,
	}
	follower, err := StartFollower(cfg)
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	waitConverged(t, followerStore, leaderStore.ShardLastSeqs())
	cold := leader.Status()
	if cold.CatchupDeltaBytes == 0 {
		t.Fatal("cold catch-up from a compacted log did not use the delta path")
	}
	if cold.CatchupFullBytes != 0 {
		t.Fatalf("v2 follower fell back to full snapshots: %d bytes", cold.CatchupFullBytes)
	}
	if err := follower.Close(); err != nil {
		t.Fatalf("follower.Close: %v", err)
	}

	// The leader moves on a little and compacts, so the returning
	// follower's cursor is behind a compacted log again.
	if err := leaderStore.Enroll("anon-late", fakeSamples("anon-late", 2, 99), false); err != nil {
		t.Fatalf("Enroll late: %v", err)
	}
	if err := leaderStore.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	follower, err = StartFollower(cfg)
	if err != nil {
		t.Fatalf("StartFollower (reconnect): %v", err)
	}
	defer func() { _ = follower.Close() }()
	waitConverged(t, followerStore, leaderStore.ShardLastSeqs())
	warm := leader.Status()

	reconnectBytes := warm.CatchupDeltaBytes - cold.CatchupDeltaBytes
	saved := warm.CatchupDeltaSavedBytes - cold.CatchupDeltaSavedBytes
	if saved == 0 {
		t.Fatal("reconnect declared no reusable chunks — hello hashes are not working")
	}
	if reconnectBytes*4 >= cold.CatchupDeltaBytes {
		t.Fatalf("warm reconnect moved %d bytes, cold catch-up moved %d — delta is not saving",
			reconnectBytes, cold.CatchupDeltaBytes)
	}
	// Against a full snapshot of the same state the reconnect must move
	// at least 30x fewer bytes, and exactly as many as it does today: a
	// count that falls lowers this figure in the same change.
	full := 0
	for shard := range leaderStore.ShardLastSeqs() {
		data, _, err := leaderStore.ShardSnapshotBytes(shard)
		if err != nil {
			t.Fatalf("ShardSnapshotBytes(%d): %v", shard, err)
		}
		full += len(data)
	}
	if reconnectBytes*30 > uint64(full) {
		t.Fatalf("warm reconnect moved %d bytes, a full snapshot is %d — under 30x fewer", reconnectBytes, full)
	}
	if reconnectBytes != 1114 {
		t.Fatalf("warm reconnect moved %d bytes, want exactly 1114 (full snapshot %d)", reconnectBytes, full)
	}

	if !reflect.DeepEqual(leaderStore.Population(), followerStore.Population()) {
		t.Fatal("populations diverged after delta catch-up")
	}
	if !reflect.DeepEqual(leaderStore.ModelVersions(), followerStore.ModelVersions()) {
		t.Fatal("model registries diverged after delta catch-up")
	}
}

// TestDisableDeltaFallsBackToFullSnapshots pins the escape hatch: a
// follower with DisableDelta speaks protocol v1 and the leader ships
// whole snapshots, at full cost but equal correctness.
func TestDisableDeltaFallsBackToFullSnapshots(t *testing.T) {
	leaderStore := openStore(t, t.TempDir(), store.Options{SnapshotEvery: -1})
	defer func() { _ = leaderStore.Close() }()
	seedBulk(t, leaderStore, 16, 8)
	if err := leaderStore.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	leader, replAddr := startLeader(t, leaderStore, "")
	defer func() { _ = leader.Close() }()

	followerStore := openStore(t, t.TempDir(), store.Options{SnapshotEvery: -1})
	defer func() { _ = followerStore.Close() }()
	follower, err := StartFollower(FollowerConfig{
		Store: followerStore, Key: testKey, LeaderAddr: replAddr, Logf: t.Logf,
		DisableDelta: true,
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	defer func() { _ = follower.Close() }()
	waitConverged(t, followerStore, leaderStore.ShardLastSeqs())

	st := leader.Status()
	if st.CatchupFullBytes == 0 {
		t.Fatal("DisableDelta follower did not use the full-snapshot path")
	}
	if st.CatchupDeltaBytes != 0 {
		t.Fatalf("DisableDelta follower still received %d delta bytes", st.CatchupDeltaBytes)
	}
	if !reflect.DeepEqual(leaderStore.Population(), followerStore.Population()) {
		t.Fatal("populations diverged on the v1 fallback path")
	}
	if !reflect.DeepEqual(leaderStore.ModelVersions(), followerStore.ModelVersions()) {
		t.Fatal("model registries diverged on the v1 fallback path")
	}
}
