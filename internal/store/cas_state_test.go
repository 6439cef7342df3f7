package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"smarteryou/internal/cas"
)

// blobRand builds an incompressible deterministic blob: random bytes defeat
// any accidental dedup between unrelated models, so byte accounting in
// these tests measures chunk sharing, not luck.
func blobRand(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// mutateBlob returns a copy of blob with a small region rewritten — the
// shape of an incremental retrain, where most model bytes survive a
// version bump.
func mutateBlob(blob []byte, seed int64, at, n int) []byte {
	out := append([]byte(nil), blob...)
	rng := rand.New(rand.NewSource(seed))
	if at+n > len(out) {
		n = len(out) - at
	}
	rng.Read(out[at : at+n])
	return out
}

// publishBlob publishes a raw model blob straight through the owning
// shard, bypassing the JSON bundle marshal — these tests care about chunk
// bytes, not model semantics.
func publishBlob(t testing.TB, s *Store, user string, blob []byte) int {
	t.Helper()
	v, err := s.shardFor(user).publishModel(user, blob)
	if err != nil {
		t.Fatalf("publishModel(%s): %v", user, err)
	}
	return v
}

// TestCASSnapshotRoundTripAcrossReopen drives the v2 snapshot format end
// to end: publish versions that share most of their bytes, compact, and
// verify both that reopen restores every retained version bit-for-bit and
// that the chunk store actually deduplicated the shared content.
func TestCASSnapshotRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{KeepModelVersions: 5, SnapshotEvery: -1})

	if err := s.Enroll("anon-alice", fakeSamples("anon-alice", 6, 1), false); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	base := blobRand(1, 192<<10)
	blobs := make([][]byte, 5)
	for i := range blobs {
		blobs[i] = mutateBlob(base, int64(i+2), (i*11)%64<<10, 512)
		publishBlob(t, s, "anon-alice", blobs[i])
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	naive := 0
	for _, b := range blobs {
		naive += len(b)
	}
	st := s.cs.Stats()
	stored := st.DiskBytes + st.MemBytes
	if stored >= int64(naive) {
		t.Fatalf("no dedup: 5 near-identical versions store %d bytes, naive is %d", stored, naive)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if _, err := os.Stat(filepath.Join(dir, "shard-0000", casSnapshotFile)); err != nil {
		t.Fatalf("snapshot.cas missing after compaction: %v", err)
	}

	s = openStore(t, dir, Options{KeepModelVersions: 5, SnapshotEvery: -1})
	defer s.Close()
	for i, want := range blobs {
		got, hash, v, err := s.ModelBlobAt("anon-alice", i+1)
		if err != nil {
			t.Fatalf("ModelBlobAt(v%d): %v", i+1, err)
		}
		if v != i+1 || !bytes.Equal(got, want) {
			t.Fatalf("version %d: got v%d, %d bytes, equal=%v", i+1, v, len(got), bytes.Equal(got, want))
		}
		if hash != cas.HashOf(want) {
			t.Fatalf("version %d: hash mismatch", i+1)
		}
	}
	if got := s.Population()["anon-alice"]; len(got) != 6 {
		t.Fatalf("windows lost across reopen: %d of 6", len(got))
	}
}

// TestKeepLastKSweepFreesDiskBytes publishes disjoint model generations
// under keep-last-1 and checks that each compaction's sweep actually
// returns the dropped generation's chunks to the filesystem instead of
// accumulating them.
func TestKeepLastKSweepFreesDiskBytes(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{KeepModelVersions: 1, SnapshotEvery: -1})
	defer s.Close()

	const blobSize = 128 << 10
	for gen := int64(1); gen <= 4; gen++ {
		// Each generation is fresh random content: nothing to share.
		publishBlob(t, s, "anon-alice", blobRand(gen*100, blobSize))
		if err := s.Snapshot(); err != nil {
			t.Fatalf("Snapshot gen %d: %v", gen, err)
		}
		st := s.cs.Stats()
		if st.DiskBytes > 2*blobSize {
			t.Fatalf("gen %d: sweep is not reclaiming dropped versions: %d bytes on disk for one %d-byte live model",
				gen, st.DiskBytes, blobSize)
		}
	}
}

// TestCrashMidSweepOrphansScrubbed simulates a crash between a chunk
// flush and the sweep that would have deleted it: chunk files exist on
// disk that no snapshot references. Reopen must index them without
// complaint, scrub must classify them as orphans, and scrub -remove must
// reclaim them while leaving every live chunk intact.
func TestCrashMidSweepOrphansScrubbed(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{SnapshotEvery: -1})
	live := blobRand(7, 96<<10)
	publishBlob(t, s, "anon-alice", live)
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Plant orphans: correctly named chunk files nothing references.
	casDir := filepath.Join(dir, casDirName)
	orphanBytes := 0
	for i := int64(0); i < 3; i++ {
		data := blobRand(1000+i, 4<<10)
		h := cas.HashOf(data)
		if err := os.WriteFile(filepath.Join(casDir, h.Hex()+".chunk"), data, 0o644); err != nil {
			t.Fatalf("plant orphan: %v", err)
		}
		orphanBytes += len(data)
	}

	s = openStore(t, dir, Options{SnapshotEvery: -1})
	defer s.Close()
	rep, err := s.ScrubCAS(false)
	if err != nil {
		t.Fatalf("ScrubCAS: %v", err)
	}
	if rep.Orphans != 3 || rep.OrphanBytes != int64(orphanBytes) {
		t.Fatalf("scrub found %d orphans (%d bytes), want 3 (%d)", rep.Orphans, rep.OrphanBytes, orphanBytes)
	}
	if !rep.Clean() {
		t.Fatalf("orphans misreported as damage: corrupt=%d missing=%d", len(rep.Corrupt), len(rep.Missing))
	}

	rep, err = s.ScrubCAS(true)
	if err != nil {
		t.Fatalf("ScrubCAS(remove): %v", err)
	}
	if rep.Removed != 3 {
		t.Fatalf("removed %d orphans, want 3", rep.Removed)
	}
	got, _, _, err := s.LatestModelBlob("anon-alice")
	if err != nil || !bytes.Equal(got, live) {
		t.Fatalf("live model damaged by scrub: err=%v equal=%v", err, bytes.Equal(got, live))
	}
	rep, err = s.ScrubCAS(false)
	if err != nil || rep.Orphans != 0 {
		t.Fatalf("orphans survived removal: %d (err=%v)", rep.Orphans, err)
	}
}

// TestCrashMidCompactionKeepsOldSnapshotReadable kills the process (by
// construction: copies the directory) mid-compaction — after the hook
// fires the job is queued but snapshot.cas is not yet replaced — and
// verifies the copy opens on the previous snapshot plus WAL replay.
func TestCrashMidCompactionCASStateRecovers(t *testing.T) {
	release := make(chan struct{})
	compactionTestHook = func() { <-release }
	defer func() { compactionTestHook = nil }()

	dir := t.TempDir()
	s := openStore(t, dir, Options{SnapshotEvery: -1})
	blob1 := blobRand(11, 64<<10)
	publishBlob(t, s, "anon-alice", blob1)

	// Queue the compaction; the worker blocks inside the hook, so disk
	// state is exactly "WAL has the publish, no snapshot yet".
	sh := s.shards[0]
	sh.mu.Lock()
	sh.queueCompactionLocked()
	sh.mu.Unlock()

	// Crash: copy the directory while compaction is wedged.
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	close(release)
	waitSnapshot(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	crashed := openStore(t, crashDir, Options{SnapshotEvery: -1})
	defer crashed.Close()
	got, _, v, err := crashed.LatestModelBlob("anon-alice")
	if err != nil || v != 1 || !bytes.Equal(got, blob1) {
		t.Fatalf("crash copy lost the publish: err=%v v=%d equal=%v", err, v, bytes.Equal(got, blob1))
	}
}

// TestCASRaceHammer is the race-detector workout pinned by `make
// race-cas`: concurrent enrolls, publishes, reads, and forced snapshots
// all cross the shard/CAS boundary at once.
func TestCASRaceHammer(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{
		Shards: 4, KeepModelVersions: 2, SnapshotEvery: 8, NoSync: true,
	})
	defer s.Close()

	const users = 8
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("anon-%02d", u)
		wg.Add(1)
		go func(user string, seed int64) {
			defer wg.Done()
			base := blobRand(seed, 32<<10)
			for i := 0; i < 20; i++ {
				if err := s.Enroll(user, fakeSamples(user, 2, float64(i)), false); err != nil {
					t.Errorf("Enroll(%s): %v", user, err)
					return
				}
				publishBlob(t, s, user, mutateBlob(base, seed+int64(i), i*512, 256))
				if _, _, _, err := s.LatestModelBlob(user); err != nil {
					t.Errorf("LatestModelBlob(%s): %v", user, err)
					return
				}
			}
		}(user, int64(u+1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.Snapshot(); err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	waitSnapshot(t, s)
	rep, err := s.ScrubCAS(false)
	if err != nil {
		t.Fatalf("ScrubCAS: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("hammer left damage: corrupt=%d missing=%d", len(rep.Corrupt), len(rep.Missing))
	}
}

// FuzzSnapshotDelta throws hostile bytes at the v2 snapshot/delta body
// decoder — the same bytes a follower accepts over the wire from its
// leader, and the same bytes a shard trusts at startup.
func FuzzSnapshotDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{casFormatV2})
	// A real body with users and multi-version models.
	seedBody := func(users, models int) []byte {
		b := casBody{
			LastSeq: 42,
			Users:   make(map[string]cas.Manifest),
			Models:  make(map[string][]modelRef),
		}
		for i := 0; i < users; i++ {
			user := fmt.Sprintf("anon-%d", i)
			m, _ := cas.ManifestOf(blobRand(int64(i+1), 8<<10))
			b.Users[user] = m
			for v := 1; v <= models; v++ {
				mm, _ := cas.ManifestOf(blobRand(int64(100*i+v), 4<<10))
				b.Models[user] = append(b.Models[user], modelRef{Version: v, Man: mm})
			}
		}
		return encodeCASBody(b)
	}
	f.Add(seedBody(1, 1))
	f.Add(seedBody(3, 2))
	valid := seedBody(2, 2)
	f.Add(valid[:len(valid)-1]) // torn tail: CRC must catch it
	corrupted := append([]byte(nil), seedBody(2, 1)...)
	corrupted[len(corrupted)/2] ^= 0x40
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := decodeCASBody(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode canonically: encode→decode→
		// encode is a fixed point.
		enc := encodeCASBody(body)
		body2, err := decodeCASBody(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !bytes.Equal(enc, encodeCASBody(body2)) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}

// TestCASDedupKeepLast5 is the acceptance check for the content-addressed
// store: five retained generations of an incrementally retrained model
// (small per-version mutations of a large blob) must store at least 3x
// fewer bytes than the naive copy-per-version layout. The stored bytes are
// pinned exactly; a change that lowers them lowers the figure here.
func TestCASDedupKeepLast5(t *testing.T) {
	const (
		users    = 16
		blobSize = 256 << 10
		versions = 5
	)
	s, err := Open(t.TempDir(), Options{KeepModelVersions: versions, SnapshotEvery: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	naive := int64(0)
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("anon-%03d", u)
		base := blobRand(int64(u+1), blobSize)
		for v := 0; v < versions; v++ {
			// An incremental retrain touches ~1% of the model.
			blob := mutateBlob(base, int64(u*100+v), (v*31)%128<<10, blobSize/100)
			publishBlob(t, s, user, blob)
			naive += int64(len(blob))
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st := s.cs.Stats()
	stored := st.DiskBytes + st.MemBytes
	ratio := float64(naive) / float64(stored)
	if ratio < 3 {
		t.Fatalf("dedup ratio %.2fx below the 3x acceptance bar (%d naive, %d stored)", ratio, naive, stored)
	}
	if naive != 20971520 || stored != 5904965 {
		t.Fatalf("stored %d of %d naive bytes (%.3fx), want 5904965 of 20971520", stored, naive, ratio)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
