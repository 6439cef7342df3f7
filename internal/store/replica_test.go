package store

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

// pipeAll copies every record of src into dst through the public
// replication surface, shard by shard, and fails on any gap.
func pipeAll(t *testing.T, src, dst *Store) {
	t.Helper()
	for shard := 0; shard < src.ShardCount(); shard++ {
		from := dst.ShardLastSeqs()[shard]
		recs, err := src.ShardRecordsSince(shard, from)
		if err != nil {
			t.Fatalf("ShardRecordsSince(%d, %d): %v", shard, from, err)
		}
		for _, r := range recs {
			if _, _, err := dst.ApplyReplicated(shard, r.Payload); err != nil {
				t.Fatalf("ApplyReplicated(%d, seq %d): %v", shard, r.Seq, err)
			}
		}
	}
}

func TestShardRecordsSinceAndApplyReplicated(t *testing.T) {
	leader := openStore(t, t.TempDir(), Options{Shards: 2, SnapshotEvery: -1})
	defer func() { _ = leader.Close() }()
	follower := openStore(t, t.TempDir(), Options{Shards: 2, SnapshotEvery: -1})
	defer func() { _ = follower.Close() }()

	users := []string{"anon-a", "anon-b", "anon-c", "anon-d"}
	for i, u := range users {
		if err := leader.Enroll(u, fakeSamples(u, 3+i, float64(i)), false); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	bundle := trainBundle(t)
	if _, err := leader.PublishModel("anon-a", bundle); err != nil {
		t.Fatalf("PublishModel: %v", err)
	}

	pipeAll(t, leader, follower)

	if !reflect.DeepEqual(leader.ShardLastSeqs(), follower.ShardLastSeqs()) {
		t.Fatalf("sequence cursors diverged: leader %v follower %v",
			leader.ShardLastSeqs(), follower.ShardLastSeqs())
	}
	if !reflect.DeepEqual(leader.Population(), follower.Population()) {
		t.Fatalf("populations diverged after replication")
	}
	if !reflect.DeepEqual(leader.ModelVersions(), follower.ModelVersions()) {
		t.Fatalf("model registries diverged: %v vs %v",
			leader.ModelVersions(), follower.ModelVersions())
	}

	// Replaying the same records is idempotent: applied=false, no error.
	for shard := 0; shard < leader.ShardCount(); shard++ {
		recs, err := leader.ShardRecordsSince(shard, 0)
		if err != nil {
			t.Fatalf("ShardRecordsSince: %v", err)
		}
		for _, r := range recs {
			_, applied, err := follower.ApplyReplicated(shard, r.Payload)
			if err != nil {
				t.Fatalf("duplicate apply errored: %v", err)
			}
			if applied {
				t.Fatalf("duplicate record seq %d reported applied", r.Seq)
			}
		}
	}
}

func TestApplyReplicatedRejectsGap(t *testing.T) {
	leader := openStore(t, t.TempDir(), Options{SnapshotEvery: -1})
	defer func() { _ = leader.Close() }()
	follower := openStore(t, t.TempDir(), Options{SnapshotEvery: -1})
	defer func() { _ = follower.Close() }()

	for i := 0; i < 3; i++ {
		if err := leader.Enroll("anon-g", fakeSamples("anon-g", 1, float64(i)), false); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	recs, err := leader.ShardRecordsSince(0, 0)
	if err != nil {
		t.Fatalf("ShardRecordsSince: %v", err)
	}
	// Skipping record 1 and applying record 2 must fail loudly.
	if _, _, err := follower.ApplyReplicated(0, recs[1].Payload); !errors.Is(err, ErrSequenceGap) {
		t.Fatalf("gap apply err = %v, want ErrSequenceGap", err)
	}
	// Garbage payloads are rejected before touching the log.
	if _, _, err := follower.ApplyReplicated(0, []byte("not a record")); err == nil {
		t.Fatalf("garbage payload accepted")
	}
	if got := follower.ShardLastSeqs()[0]; got != 0 {
		t.Fatalf("failed applies advanced the cursor to %d", got)
	}
}

func TestShardRecordsSinceCompacted(t *testing.T) {
	leader := openStore(t, t.TempDir(), Options{SnapshotEvery: -1})
	defer func() { _ = leader.Close() }()
	for i := 0; i < 5; i++ {
		if err := leader.Enroll("anon-s", fakeSamples("anon-s", 2, float64(i)), false); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if err := leader.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// All five records are behind the snapshot now.
	if _, err := leader.ShardRecordsSince(0, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("records-since-0 err = %v, want ErrCompacted", err)
	}
	// From the snapshot's cursor the (empty) tail is readable.
	recs, err := leader.ShardRecordsSince(0, leader.ShardLastSeqs()[0])
	if err != nil {
		t.Fatalf("records since cursor: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("expected empty tail, got %d records", len(recs))
	}
}

func TestInstallShardSnapshot(t *testing.T) {
	leader := openStore(t, t.TempDir(), Options{SnapshotEvery: -1})
	defer func() { _ = leader.Close() }()
	for i := 0; i < 4; i++ {
		if err := leader.Enroll("anon-i", fakeSamples("anon-i", 3, float64(i)), false); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if _, err := leader.PublishModel("anon-i", trainBundle(t)); err != nil {
		t.Fatalf("PublishModel: %v", err)
	}

	data, lastSeq, err := leader.ShardSnapshotBytes(0)
	if err != nil {
		t.Fatalf("ShardSnapshotBytes: %v", err)
	}
	if want := leader.ShardLastSeqs()[0]; lastSeq != want {
		t.Fatalf("snapshot lastSeq %d, store cursor %d", lastSeq, want)
	}

	dir := t.TempDir()
	follower := openStore(t, dir, Options{SnapshotEvery: -1})
	// A stale record in the follower WAL is superseded by the install.
	if err := follower.Enroll("anon-old", fakeSamples("anon-old", 1, 0), false); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	got, err := follower.InstallShardSnapshot(0, data)
	if err != nil {
		t.Fatalf("InstallShardSnapshot: %v", err)
	}
	if got != lastSeq {
		t.Fatalf("install reported seq %d, want %d", got, lastSeq)
	}
	if !reflect.DeepEqual(leader.Population(), follower.Population()) {
		t.Fatalf("population mismatch after install")
	}
	if follower.ShardLastSeqs()[0] != lastSeq {
		t.Fatalf("cursor %d after install, want %d", follower.ShardLastSeqs()[0], lastSeq)
	}
	// Installing an older snapshot must be refused.
	if _, err := follower.InstallShardSnapshot(0, encodeBinarySnapshot(snapshot{LastSeq: 1})); err == nil {
		t.Fatalf("rollback snapshot install accepted")
	}
	if err := follower.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The installed state survives a reopen from disk alone.
	reopened := openStore(t, dir, Options{SnapshotEvery: -1})
	defer func() { _ = reopened.Close() }()
	if !reflect.DeepEqual(leader.Population(), reopened.Population()) {
		t.Fatalf("population mismatch after reopen")
	}
	if reopened.ShardLastSeqs()[0] != lastSeq {
		t.Fatalf("cursor %d after reopen, want %d", reopened.ShardLastSeqs()[0], lastSeq)
	}
}

// TestApplyReplicatedKeepsNoCallerBytes pins that a replicated record
// handed on to this store's own replication sinks (a follower that leads
// followers of its own) is a copy: the replication follower reads every
// frame into one reused buffer and overwrites it with the next frame.
func TestApplyReplicatedKeepsNoCallerBytes(t *testing.T) {
	leader := openStore(t, t.TempDir(), Options{SnapshotEvery: -1})
	defer func() { _ = leader.Close() }()
	follower := openStore(t, t.TempDir(), Options{SnapshotEvery: -1})
	defer func() { _ = follower.Close() }()
	if err := leader.Enroll("anon-a", fakeSamples("anon-a", 2, 0), false); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	recs, err := leader.ShardRecordsSince(0, 0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("ShardRecordsSince: %d records, %v", len(recs), err)
	}
	var forwarded []byte
	cancel := follower.SubscribeReplication(func(_ int, _ uint64, payload []byte) { forwarded = payload })
	defer cancel()
	buf := append([]byte(nil), recs[0].Payload...)
	if _, applied, err := follower.ApplyReplicated(0, buf); err != nil || !applied {
		t.Fatalf("ApplyReplicated: applied %v, %v", applied, err)
	}
	clear(buf)
	if !reflect.DeepEqual(forwarded, recs[0].Payload) {
		t.Fatalf("the sink's payload changed with the caller's buffer")
	}
}

func TestSubscribeReplicationDeliversInOrder(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{Shards: 2, SnapshotEvery: -1})
	defer func() { _ = s.Close() }()

	var mu sync.Mutex
	seen := make(map[int][]uint64)
	cancel := s.SubscribeReplication(func(shard int, seq uint64, payload []byte) {
		mu.Lock()
		seen[shard] = append(seen[shard], seq)
		mu.Unlock()
	})

	for i := 0; i < 6; i++ {
		u := []string{"anon-x", "anon-y", "anon-z"}[i%3]
		if err := s.Enroll(u, fakeSamples(u, 1, float64(i)), false); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	mu.Lock()
	total := 0
	for shard, seqs := range seen {
		total += len(seqs)
		for i, seq := range seqs {
			if seq != uint64(i+1) {
				t.Fatalf("shard %d delivery out of order: %v", shard, seqs)
			}
		}
	}
	mu.Unlock()
	if total != 6 {
		t.Fatalf("saw %d notifications, want 6", total)
	}

	cancel()
	if err := s.Enroll("anon-x", fakeSamples("anon-x", 1, 9), false); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	mu.Lock()
	totalAfter := 0
	for _, seqs := range seen {
		totalAfter += len(seqs)
	}
	mu.Unlock()
	if totalAfter != total {
		t.Fatalf("sink called after cancel")
	}
}
