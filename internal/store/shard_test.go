package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"smarteryou/internal/features"
)

func TestShardedRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Shards: 4})

	want := make(map[string][]features.WindowSample)
	for i := 0; i < 16; i++ {
		user := fmt.Sprintf("anon-%02d", i)
		samples := fakeSamples(user, 3, float64(i))
		if err := s.Enroll(user, samples, false); err != nil {
			t.Fatalf("Enroll %s: %v", user, err)
		}
		want[user] = samples
	}
	bundle := trainBundle(t)
	if _, err := s.PublishModel("anon-03", bundle); err != nil {
		t.Fatalf("PublishModel: %v", err)
	}
	st := s.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("Stats reports %d shards, want 4", len(st.Shards))
	}
	sumWindows := 0
	for _, shs := range st.Shards {
		sumWindows += shs.Windows
	}
	if sumWindows != st.Windows || st.Windows != 16*3 {
		t.Errorf("per-shard windows sum to %d, aggregate %d, want %d", sumWindows, st.Windows, 16*3)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The sharded layout must be on disk, not a single WAL.
	if _, err := os.Stat(filepath.Join(dir, "shard-0000")); err != nil {
		t.Fatalf("shard directory missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, walFile)); !os.IsNotExist(err) {
		t.Errorf("top-level %s present in sharded layout", walFile)
	}

	s2 := openStore(t, dir, Options{Shards: 4})
	defer func() { _ = s2.Close() }()
	if got := s2.Population(); !reflect.DeepEqual(got, want) {
		t.Errorf("population did not survive reopen: got %d users, want %d", len(got), len(want))
	}
	if _, v, err := s2.LatestModel("anon-03"); err != nil || v != 1 {
		t.Errorf("LatestModel after reopen = (v%d, %v), want v1", v, err)
	}
}

// TestShardCountPinnedByMeta: reopening a store with a different Shards
// option must keep the on-disk count, one shard included — rehashing
// users across a different count would break replace semantics.
func TestShardCountPinnedByMeta(t *testing.T) {
	for _, tc := range []struct{ created, reopened int }{{3, 8}, {1, 4}} {
		t.Run(fmt.Sprintf("%d_reopened_as_%d", tc.created, tc.reopened), func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir, Options{Shards: tc.created})
			want := make(map[string][]features.WindowSample)
			for i := 0; i < 4; i++ {
				user := fmt.Sprintf("anon-%d", i)
				want[user] = fakeSamples(user, 2, float64(i))
				if err := s.Enroll(user, want[user], false); err != nil {
					t.Fatalf("Enroll: %v", err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			s2 := openStore(t, dir, Options{Shards: tc.reopened})
			defer func() { _ = s2.Close() }()
			if got := len(s2.Stats().Shards); got != tc.created {
				t.Errorf("reopen with Shards=%d produced %d shards, want the pinned %d", tc.reopened, got, tc.created)
			}
			if got := s2.Population(); !reflect.DeepEqual(got, want) {
				t.Errorf("population lost across pinned reopen: got %d users, want %d", len(got), len(want))
			}
		})
	}
}

// TestReopenAfterMovingOneShardStore walks the upgrade recipe for a
// directory of the earlier layout, which kept a one-shard store's WAL,
// sealed segments and snapshot at the top level: Open refuses those
// files where they are, changing nothing, and opens the same population
// once they are moved into shard-0000/.
func TestReopenAfterMovingOneShardStore(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{SnapshotEvery: -1, NoSync: true})
	for i, user := range []string{"anon-a", "anon-b", "anon-c", "anon-d"} {
		if i == 2 { // two users compacted, two left in the WAL
			if err := s.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
		}
		if err := s.Enroll(user, fakeSamples(user, 3, float64(i)), false); err != nil {
			t.Fatalf("Enroll %s: %v", user, err)
		}
	}
	if _, err := s.PublishModel("anon-a", trainBundle(t)); err != nil {
		t.Fatalf("PublishModel: %v", err)
	}
	want := s.Population()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s = openStore(t, dir, Options{SnapshotEvery: -1, NoSync: true})
	if got := s.Population(); !reflect.DeepEqual(got, want) {
		t.Fatalf("one-shard store reopened onto %d users, want %d", len(got), len(want))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	shardDir := filepath.Join(dir, "shard-0000")
	move := func(from, to string) {
		t.Helper()
		entries, err := os.ReadDir(from)
		if err != nil {
			t.Fatalf("read %s: %v", from, err)
		}
		for _, e := range entries {
			if isShardFile(e.Name()) {
				if err := os.Rename(filepath.Join(from, e.Name()), filepath.Join(to, e.Name())); err != nil {
					t.Fatalf("move %s: %v", e.Name(), err)
				}
			}
		}
	}
	move(shardDir, dir)
	if err := os.Remove(shardDir); err != nil {
		t.Fatalf("remove emptied shard directory: %v", err)
	}
	before := treeDigest(t, dir)
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrUnsupportedFormat) {
		t.Fatalf("Open with a top-level one-shard store: err = %v, want ErrUnsupportedFormat", err)
	}
	if after := treeDigest(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("refused Open changed the data directory:\nbefore %v\nafter  %v", before, after)
	}

	if err := os.Mkdir(shardDir, 0o755); err != nil {
		t.Fatalf("create shard directory: %v", err)
	}
	move(dir, shardDir)
	s = openStore(t, dir, Options{})
	defer func() { _ = s.Close() }()
	if got := s.Population(); !reflect.DeepEqual(got, want) {
		t.Errorf("moved store opened onto %d users, want %d", len(got), len(want))
	}
	if _, v, err := s.LatestModel("anon-a"); err != nil || v != 1 {
		t.Errorf("LatestModel after the move = (v%d, %v), want v1", v, err)
	}
}

func TestModelVersionRetention(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{KeepModelVersions: 2})
	bundle := trainBundle(t)
	for i := 1; i <= 5; i++ {
		if v, err := s.PublishModel("u", bundle); err != nil || v != i {
			t.Fatalf("PublishModel #%d = (%d, %v)", i, v, err)
		}
	}
	// Versions 1-3 are GC'd; 4 and 5 remain; numbering keeps counting.
	if _, _, _, err := s.ModelBlobAt("u", 3); !errors.Is(err, ErrNoModel) {
		t.Errorf("ModelBlobAt(3) err = %v, want ErrNoModel (retained window is last 2)", err)
	}
	if _, _, _, err := s.ModelBlobAt("u", 4); err != nil {
		t.Errorf("ModelBlobAt(4): %v", err)
	}
	if _, v, err := s.LatestModel("u"); err != nil || v != 5 {
		t.Errorf("LatestModel = (v%d, %v), want v5", v, err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Replay (snapshot was GC'd at compaction) must respect the policy,
	// and the next publish continues the version sequence.
	s2 := openStore(t, dir, Options{KeepModelVersions: 2})
	defer func() { _ = s2.Close() }()
	if _, _, _, err := s2.ModelBlobAt("u", 3); !errors.Is(err, ErrNoModel) {
		t.Errorf("reopened ModelBlobAt(3) err = %v, want ErrNoModel", err)
	}
	if v, err := s2.PublishModel("u", bundle); err != nil || v != 6 {
		t.Errorf("publish after reopen = (v%d, %v), want v6", v, err)
	}
}

// TestRetentionAppliesOnReplayOfUnboundedHistory: a log written without
// retention, reopened with KeepModelVersions set, trims during replay.
func TestRetentionAppliesOnReplayOfUnboundedHistory(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	bundle := trainBundle(t)
	for i := 1; i <= 4; i++ {
		if _, err := s.PublishModel("u", bundle); err != nil {
			t.Fatalf("PublishModel: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openStore(t, dir, Options{KeepModelVersions: 1})
	defer func() { _ = s2.Close() }()
	if _, _, _, err := s2.ModelBlobAt("u", 3); !errors.Is(err, ErrNoModel) {
		t.Errorf("version 3 survived replay with KeepModelVersions=1")
	}
	if _, v, err := s2.LatestModel("u"); err != nil || v != 4 {
		t.Errorf("LatestModel = (v%d, %v), want v4", v, err)
	}
}

// TestEnrollDoesNotBlockOnCompaction holds a compaction in flight
// indefinitely and proves enrolls still complete with bounded latency —
// the inline-compaction stall this PR removes would hang this test.
func TestEnrollDoesNotBlockOnCompaction(t *testing.T) {
	release := make(chan struct{})
	compactionTestHook = func() { <-release }
	defer func() { compactionTestHook = nil }()

	dir := t.TempDir()
	s := openStore(t, dir, Options{SnapshotEvery: 8, NoSync: true})
	const total = 120
	for i := 0; i < total; i++ {
		user := fmt.Sprintf("u-%03d", i)
		start := time.Now()
		if err := s.Enroll(user, fakeSamples(user, 2, float64(i)), false); err != nil {
			t.Fatalf("Enroll %d: %v", i, err)
		}
		// Generous bound: an enroll is one WAL append (+ at worst an O(1)
		// segment rename). Paying for a full-state compaction inline
		// would exceed this by orders of magnitude — and with the worker
		// pinned by the hook, it would block forever.
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("enroll %d took %v with a compaction in flight", i, d)
		}
	}
	st := s.Stats()
	if st.Windows != total*2 {
		t.Errorf("stored %d windows while compaction was in flight, want %d", st.Windows, total*2)
	}
	if st.HasSnapshot {
		t.Errorf("snapshot landed while the worker was pinned — compaction ran on the request path")
	}
	close(release)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openStore(t, dir, Options{})
	defer func() { _ = s2.Close() }()
	if got := s2.Stats().Windows; got != total*2 {
		t.Errorf("recovered %d windows, want %d", got, total*2)
	}
}

// TestCrashMidBackgroundCompactionLosesNothing photographs the disk while
// a compaction is wedged between sealing the WAL segment and publishing
// the snapshot — the worst crash point — and recovers from the photo.
func TestCrashMidBackgroundCompactionLosesNothing(t *testing.T) {
	release := make(chan struct{})
	compactionTestHook = func() { <-release }
	defer func() { compactionTestHook = nil }()

	dir := t.TempDir()
	s := openStore(t, dir, Options{SnapshotEvery: 4, NoSync: true})
	for i := 0; i < 4; i++ { // 4th crosses the threshold: seals + queues
		user := fmt.Sprintf("sealed-%d", i)
		if err := s.Enroll(user, fakeSamples(user, 2, float64(i)), false); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	for i := 0; i < 3; i++ { // land in the fresh active segment
		user := fmt.Sprintf("active-%d", i)
		if err := s.Enroll(user, fakeSamples(user, 2, 10+float64(i)), false); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}

	// The sealed segment must exist and the snapshot must not, or the
	// test is not photographing the window it claims to.
	sealed, _, err := sealedSegments(filepath.Join(dir, "shard-0000"))
	if err != nil || len(sealed) == 0 {
		t.Fatalf("no sealed segment while compaction wedged (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0000", casSnapshotFile)); !os.IsNotExist(err) {
		t.Fatalf("snapshot present while worker wedged")
	}

	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)

	close(release)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	crashed := openStore(t, crashDir, Options{})
	defer func() { _ = crashed.Close() }()
	st := crashed.Stats()
	if st.Users != 7 || st.Windows != 14 {
		t.Errorf("crash image recovered %d users / %d windows, want 7 / 14", st.Users, st.Windows)
	}
	if st.Recovery.Replayed != 7 {
		t.Errorf("replayed %d records from crash image, want 7", st.Recovery.Replayed)
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("read %s: %v", src, err)
	}
	for _, e := range entries {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := os.MkdirAll(dp, 0o755); err != nil {
				t.Fatalf("mkdir %s: %v", dp, err)
			}
			copyTree(t, sp, dp)
			continue
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			t.Fatalf("read %s: %v", sp, err)
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			t.Fatalf("write %s: %v", dp, err)
		}
	}
}

// TestSealedSegmentSurvivesUncleanShutdownWithoutSnapshot: sealed
// segments found at open (no covering snapshot) replay and are then
// cleaned up by the next compaction.
func TestOrphanSealedSegmentsCleanedByNextCompaction(t *testing.T) {
	release := make(chan struct{})
	compactionTestHook = func() { <-release }

	dir := t.TempDir()
	s := openStore(t, dir, Options{SnapshotEvery: 2, NoSync: true})
	for i := 0; i < 2; i++ {
		if err := s.Enroll(fmt.Sprintf("u%d", i), fakeSamples("u", 1, float64(i)), false); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	close(release)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	compactionTestHook = nil

	// Reopen the crash image (sealed segment, no snapshot) and compact:
	// the orphan segment must be adopted and removed.
	s2 := openStore(t, crashDir, Options{SnapshotEvery: -1})
	if got := s2.Stats().Windows; got != 2 {
		t.Fatalf("crash image recovered %d windows, want 2", got)
	}
	if err := s2.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if sealed, _, _ := sealedSegments(filepath.Join(crashDir, "shard-0000")); len(sealed) != 0 {
		t.Errorf("%d orphan sealed segments survived a compaction", len(sealed))
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
