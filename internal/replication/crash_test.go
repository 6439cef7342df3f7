package replication

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"smarteryou/internal/store"
)

// TestFollowerCrashRestartMidStream kills a follower mid-stream, tears
// the tail of its WAL (the bytes a crash mid-append leaves behind),
// reopens the store, and reconnects: recovery must truncate the torn
// frame, the stream must resume from the last durable sequence, and the
// converged follower must hold exactly the leader's records — no
// duplicates, no gaps.
func TestFollowerCrashRestartMidStream(t *testing.T) {
	leaderStore := openStore(t, t.TempDir(), store.Options{SnapshotEvery: -1})
	defer func() { _ = leaderStore.Close() }()
	leader, replAddr := startLeader(t, leaderStore, "")
	defer func() { _ = leader.Close() }()

	for i := 0; i < 8; i++ {
		if err := leaderStore.Enroll("anon-c", fakeSamples("anon-c", 2, float64(i)), false); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}

	followerDir := t.TempDir()
	followerStore := openStore(t, followerDir, store.Options{SnapshotEvery: -1})
	follower, err := StartFollower(FollowerConfig{
		Store:      followerStore,
		Key:        testKey,
		LeaderAddr: replAddr,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	waitConverged(t, followerStore, leaderStore.ShardLastSeqs())

	// Crash: stop the stream, close the store, and tear the WAL tail the
	// way a mid-append power cut would — a frame header that promises more
	// bytes than follow.
	if err := follower.Close(); err != nil {
		t.Fatalf("follower.Close: %v", err)
	}
	if err := followerStore.Close(); err != nil {
		t.Fatalf("followerStore.Close: %v", err)
	}
	walPath := filepath.Join(followerDir, "shard-0000", "wal.log")
	intact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	torn := append([]byte(nil), intact...)
	torn = append(torn, 0x00, 0x00, 0x10, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02)
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatalf("write torn wal: %v", err)
	}

	// The leader keeps appending while the follower is down.
	seqsAtCrash := leaderStore.ShardLastSeqs()
	for i := 0; i < 5; i++ {
		if err := leaderStore.Enroll("anon-c2", fakeSamples("anon-c2", 1, 100+float64(i)), false); err != nil {
			t.Fatalf("Enroll while down: %v", err)
		}
	}

	// Restart: recovery drops the torn bytes and the durable cursor is
	// exactly where the crash left it.
	reopened := openStore(t, followerDir, store.Options{SnapshotEvery: -1})
	defer func() { _ = reopened.Close() }()
	if got := reopened.Stats().Recovery.TruncatedBytes; got == 0 {
		t.Fatalf("recovery truncated no bytes from the torn wal")
	}
	if got := reopened.ShardLastSeqs(); !reflect.DeepEqual(got, seqsAtCrash) {
		t.Fatalf("cursor after torn-tail recovery: %v, want %v", got, seqsAtCrash)
	}

	// Track the sequences delivered on reconnect: the resumed stream must
	// start after the durable cursor, not replay from zero.
	var (
		mu      sync.Mutex
		applied []uint64
	)
	restarted, err := StartFollower(FollowerConfig{
		Store:      reopened,
		Key:        testKey,
		LeaderAddr: replAddr,
		Logf:       t.Logf,
		OnApply: func(op store.ReplicatedOp) {
			mu.Lock()
			applied = append(applied, op.Seq)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("StartFollower restart: %v", err)
	}
	waitConverged(t, reopened, leaderStore.ShardLastSeqs())
	// Stopping the follower joins the stream goroutine, so the OnApply
	// slice is quiescent before the assertions read it.
	if err := restarted.Close(); err != nil {
		t.Fatalf("restarted.Close: %v", err)
	}

	if len(applied) != 5 {
		t.Fatalf("restart applied %d records (%v), want exactly the 5 missed ones", len(applied), applied)
	}
	for i, seq := range applied {
		if want := seqsAtCrash[0] + uint64(i+1); seq != want {
			t.Fatalf("resume sequence %d is %d, want %d (duplicate or gap)", i, seq, want)
		}
	}
	if !reflect.DeepEqual(leaderStore.Population(), reopened.Population()) {
		t.Fatalf("populations diverged after crash-restart")
	}
	var total int
	for _, samples := range reopened.Population() {
		total += len(samples)
	}
	if want := 8*2 + 5; total != want {
		t.Fatalf("follower holds %d windows after restart, want %d", total, want)
	}
}
