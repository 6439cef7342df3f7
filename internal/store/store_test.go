package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smarteryou/internal/core"
	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
)

// fakeSamples builds deterministic feature windows without running the
// sensing pipeline: the store persists windows opaquely, so any values do.
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

// trainBundle fits a small real model so registry tests exercise the
// actual JSON model serialization.
func trainBundle(t *testing.T) *core.ModelBundle {
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

func openStore(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// waitSnapshot blocks until every shard's background compaction queue is
// empty — the test-side equivalent of the drain Close performs.
func waitSnapshot(t *testing.T, s *Store) {
	t.Helper()
	for _, sh := range s.shards {
		sh.mu.Lock()
		for sh.pending != nil || sh.compacting {
			sh.cond.Wait()
		}
		sh.mu.Unlock()
	}
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})

	alice := fakeSamples("anon-alice", 5, 1)
	bob := fakeSamples("anon-bob", 7, 5)
	if err := s.Enroll("anon-alice", alice, false); err != nil {
		t.Fatalf("Enroll alice: %v", err)
	}
	if err := s.Enroll("anon-bob", bob, false); err != nil {
		t.Fatalf("Enroll bob: %v", err)
	}
	bundle := trainBundle(t)
	version, err := s.PublishModel("anon-alice", bundle)
	if err != nil {
		t.Fatalf("PublishModel: %v", err)
	}
	if version != 1 {
		t.Errorf("first published version = %d, want 1", version)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the full population and registry must come back.
	s2 := openStore(t, dir, Options{})
	defer func() { _ = s2.Close() }()
	pop := s2.Population()
	if !reflect.DeepEqual(pop["anon-alice"], alice) {
		t.Errorf("alice's windows did not survive the reopen")
	}
	if !reflect.DeepEqual(pop["anon-bob"], bob) {
		t.Errorf("bob's windows did not survive the reopen")
	}
	got, gotVersion, err := s2.LatestModel("anon-alice")
	if err != nil {
		t.Fatalf("LatestModel: %v", err)
	}
	if gotVersion != 1 {
		t.Errorf("recovered version = %d, want 1", gotVersion)
	}
	want, _ := bundle.Marshal()
	gotBlob, _ := got.Marshal()
	if !bytes.Equal(want, gotBlob) {
		t.Errorf("recovered model differs from the published one")
	}
	if s2.Stats().Recovery.Replayed == 0 {
		t.Errorf("reopen replayed no records")
	}
}

func TestReplaceDiscardsOldWindows(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if err := s.Enroll("u", fakeSamples("u", 8, 1), false); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	fresh := fakeSamples("u", 3, 2)
	if err := s.Enroll("u", fresh, true); err != nil {
		t.Fatalf("Enroll replace: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openStore(t, dir, Options{})
	defer func() { _ = s2.Close() }()
	if got := s2.Population()["u"]; !reflect.DeepEqual(got, fresh) {
		t.Errorf("after replace+reopen, got %d windows, want the 3 fresh ones", len(got))
	}
}

// TestCrashRecoveryTruncatedTail simulates the torn final write of a
// crashed process: N enrollments, then the log loses part of its last
// record. Reopen must recover the intact prefix and stay writable.
func TestCrashRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	const n = 6
	for i := 0; i < n; i++ {
		user := "user-" + string(rune('a'+i))
		if err := s.Enroll(user, fakeSamples(user, 4, float64(i)), false); err != nil {
			t.Fatalf("Enroll %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the final record: chop a few bytes off the log.
	walPath := filepath.Join(dir, "shard-0000", walFile)
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatalf("stat wal: %v", err)
	}
	if err := os.Truncate(walPath, info.Size()-5); err != nil {
		t.Fatalf("truncate wal: %v", err)
	}

	s2 := openStore(t, dir, Options{})
	stats := s2.Stats()
	if stats.Users != n-1 {
		t.Errorf("recovered %d users, want the intact prefix of %d", stats.Users, n-1)
	}
	if stats.Recovery.Replayed != n-1 {
		t.Errorf("replayed %d records, want %d", stats.Recovery.Replayed, n-1)
	}
	if stats.Recovery.TruncatedBytes == 0 {
		t.Errorf("recovery reported no truncation")
	}

	// The store must stay writable after recovery, and the new write must
	// itself survive a reopen.
	if err := s2.Enroll("late", fakeSamples("late", 2, 50), false); err != nil {
		t.Fatalf("Enroll after recovery: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s3 := openStore(t, dir, Options{})
	defer func() { _ = s3.Close() }()
	if got := len(s3.Population()["late"]); got != 2 {
		t.Errorf("post-recovery write did not survive reopen: %d windows", got)
	}
}

// TestCorruptMidLogTruncates flips a byte inside an early record: the
// framing downstream of the damage is untrustworthy, so recovery keeps
// only the prefix before it — with an error path, never a panic.
func TestCorruptMidLogTruncates(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	var offsets []int64
	for i := 0; i < 4; i++ {
		user := "user-" + string(rune('a'+i))
		if err := s.Enroll(user, fakeSamples(user, 3, float64(i)), false); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
		offsets = append(offsets, s.Stats().WALBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	walPath := filepath.Join(dir, "shard-0000", walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	// Corrupt a payload byte inside the second record.
	data[offsets[0]+recordHeaderSize+3] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatalf("write wal: %v", err)
	}

	s2 := openStore(t, dir, Options{})
	defer func() { _ = s2.Close() }()
	stats := s2.Stats()
	if stats.Users != 1 {
		t.Errorf("recovered %d users, want 1 (prefix before the corruption)", stats.Users)
	}
	if stats.Recovery.TruncatedBytes != int64(len(data))-offsets[0] {
		t.Errorf("TruncatedBytes = %d, want %d", stats.Recovery.TruncatedBytes, int64(len(data))-offsets[0])
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{SnapshotEvery: 4})
	for i := 0; i < 10; i++ {
		user := "user-" + string(rune('a'+i))
		if err := s.Enroll(user, fakeSamples(user, 2, float64(i)), false); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	// Compaction runs on a background worker; wait for the triggered
	// snapshots (records 4 and 8) to land.
	waitSnapshot(t, s)
	stats := s.Stats()
	if !stats.HasSnapshot {
		t.Fatalf("no snapshot after %d records with SnapshotEvery=4", 10)
	}
	if stats.SnapshotAge < 0 {
		t.Errorf("negative snapshot age %v", stats.SnapshotAge)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openStore(t, dir, Options{})
	defer func() { _ = s2.Close() }()
	got := s2.Stats()
	if got.Users != 10 {
		t.Errorf("recovered %d users from snapshot+wal, want 10", got.Users)
	}
	if got.Windows != 20 {
		t.Errorf("recovered %d windows, want 20", got.Windows)
	}
	// Snapshots at records 4 and 8 reset the log, so only the 2 records
	// after the last compaction are replayed — the rest load from the
	// snapshot.
	if got.Recovery.Replayed != 2 {
		t.Errorf("replayed %d records after compaction, want 2", got.Recovery.Replayed)
	}
}

// TestStaleWALAfterSnapshotIsSkipped models a crash between snapshot
// publication and the log reset: the snapshot already contains the log,
// so replay must skip every record instead of double-applying it.
func TestStaleWALAfterSnapshotIsSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{SnapshotEvery: -1})
	if err := s.Enroll("u", fakeSamples("u", 5, 1), false); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	// Preserve the pre-snapshot log, snapshot, then restore the stale log
	// as if the in-place reset never happened.
	walPath := filepath.Join(dir, "shard-0000", walFile)
	stale, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := os.WriteFile(walPath, stale, 0o644); err != nil {
		t.Fatalf("restore stale wal: %v", err)
	}

	s2 := openStore(t, dir, Options{})
	defer func() { _ = s2.Close() }()
	stats := s2.Stats()
	if stats.Windows != 5 {
		t.Errorf("windows = %d after stale-log reopen, want 5 (no double apply)", stats.Windows)
	}
	if stats.Recovery.SkippedBySnapshot != 1 {
		t.Errorf("SkippedBySnapshot = %d, want 1", stats.Recovery.SkippedBySnapshot)
	}
}

func TestModelRegistryVersions(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	defer func() { _ = s.Close() }()

	bundle := trainBundle(t)
	for want := 1; want <= 3; want++ {
		v, err := s.PublishModel("u", bundle)
		if err != nil {
			t.Fatalf("PublishModel #%d: %v", want, err)
		}
		if v != want {
			t.Errorf("published version = %d, want %d", v, want)
		}
	}
	if _, v, err := s.LatestModel("u"); err != nil || v != 3 {
		t.Errorf("LatestModel = (v%d, %v), want v3", v, err)
	}
	if _, _, _, err := s.ModelBlobAt("u", 2); err != nil {
		t.Errorf("ModelBlobAt(2): %v", err)
	}
	if _, _, _, err := s.ModelBlobAt("u", 9); !errors.Is(err, ErrNoModel) {
		t.Errorf("ModelBlobAt(9) err = %v, want ErrNoModel", err)
	}
	if _, _, err := s.LatestModel("ghost"); !errors.Is(err, ErrNoModel) {
		t.Errorf("LatestModel(ghost) err = %v, want ErrNoModel", err)
	}
	if got := s.ModelVersions(); got["u"] != 3 {
		t.Errorf("ModelVersions = %v, want u:3", got)
	}
}

func TestClosedStoreRejectsMutations(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if err := s.Enroll("u", nil, false); !errors.Is(err, ErrClosed) {
		t.Errorf("Enroll on closed store err = %v, want ErrClosed", err)
	}
	if _, err := s.PublishModel("u", trainBundle(t)); !errors.Is(err, ErrClosed) {
		t.Errorf("PublishModel on closed store err = %v, want ErrClosed", err)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Errorf("empty dir should error")
	}
	if err := (&Store{}).Enroll("", nil, false); err == nil {
		t.Errorf("empty user id should error")
	}
}

func TestStaleSnapshotTempIsRemoved(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "shard-0000", casSnapshotFile+tmpSuffix)
	if err := os.MkdirAll(filepath.Dir(tmp), 0o755); err != nil {
		t.Fatalf("create shard directory: %v", err)
	}
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatalf("plant temp: %v", err)
	}
	s := openStore(t, dir, Options{})
	defer func() { _ = s.Close() }()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("interrupted snapshot temp survived Open")
	}
}

// TestMetaWrittenOnceAtCreation: meta.json is the only record of the
// shard count, so a reopen must leave it as the file creation wrote, not
// replace it — a crash mid-replace could leave it empty, and the store
// unopenable.
func TestMetaWrittenOnceAtCreation(t *testing.T) {
	dir := t.TempDir()
	metaPath := filepath.Join(dir, metaFile)
	if err := openStore(t, dir, Options{Shards: 2}).Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	before, err := os.Stat(metaPath)
	if err != nil {
		t.Fatalf("stat meta: %v", err)
	}
	if err := openStore(t, dir, Options{Shards: 2}).Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	after, err := os.Stat(metaPath)
	if err != nil {
		t.Fatalf("stat meta: %v", err)
	}
	if !os.SameFile(before, after) {
		t.Errorf("reopen replaced %s", metaFile)
	}
}

// treeDigest maps every path under dir to its content hash (directories to
// "dir"), so two digests are equal exactly when nothing was created,
// removed, truncated or rewritten in between.
func treeDigest(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	fsys := os.DirFS(dir)
	err := fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			out[path] = "dir"
			return nil
		}
		data, err := fs.ReadFile(fsys, path)
		out[path] = fmt.Sprintf("%x", sha256.Sum256(data))
		return err
	})
	if err != nil {
		t.Fatalf("digest %s: %v", dir, err)
	}
	return out
}

// TestOpenRefusesUnsupportedFormats pins "the store reads only what it
// writes" from the refusing side: a snapshot file of an earlier
// generation, a one-shard store's files at the top level (the earlier
// layout), a meta.json of another format, or an intact WAL record whose
// format byte this build does not know, fails Open with
// ErrUnsupportedFormat naming the file, and the data directory is
// byte-identical afterwards. Opening around such state (ignoring the
// file, or truncating the log at the record as if it were torn) would
// silently drop enrollments another build acknowledged.
func TestOpenRefusesUnsupportedFormats(t *testing.T) {
	jsonRecord := frame([]byte(`{"seq":9,"op":"enroll","user":"anon-z"}`))
	record, err := encodeRecord(walRecord{Seq: 1, Op: opEnroll, User: "anon-z", Samples: fakeSamples("anon-z", 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, file string // file is relative to the store directory
		data       []byte
		extend     bool // append to the existing file instead of creating it
		overwrite  bool // replace the existing file's contents
	}{
		{name: "snapshot.json", file: "snapshot.json", data: []byte(`{"last_seq":1,"users":{},"models":{}}`)},
		{name: "snapshot.bin", file: "shard-0001/snapshot.bin", data: encodeBinarySnapshot(snapshot{LastSeq: 1})},
		{name: "json record in wal.log", file: "shard-0000/" + walFile, data: jsonRecord, extend: true},
		{name: "json record in a sealed segment", file: "shard-0001/" + sealedSegmentName(0), data: jsonRecord},
		{name: "format byte 0x7F in wal.log", file: "shard-0001/" + walFile, data: frame([]byte{0x7F, 1, 2, 3}), extend: true},
		{name: "top-level wal.log", file: walFile, data: record},
		{name: "top-level sealed segment", file: sealedSegmentName(0), data: record},
		{name: "top-level snapshot.cas", file: casSnapshotFile, data: encodeCASBody(casBody{LastSeq: 1})},
		{name: "meta.json of format 2", file: metaFile, data: []byte(`{"format":2,"shards":2}`), overwrite: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := Options{Shards: 2, SnapshotEvery: -1, NoSync: true}
			s := openStore(t, dir, opt)
			for i, user := range []string{"anon-a", "anon-b", "anon-c", "anon-d", "anon-e", "anon-f", "anon-g", "anon-h"} {
				if i == 4 { // the first four are compacted, the rest stay in the WALs
					if err := s.Snapshot(); err != nil {
						t.Fatalf("Snapshot: %v", err)
					}
				}
				if err := s.Enroll(user, fakeSamples(user, 2, 1), false); err != nil {
					t.Fatalf("Enroll %s: %v", user, err)
				}
			}
			for i, shs := range s.Stats().Shards {
				if shs.WALBytes == 0 {
					t.Fatalf("fixture: shard %d has no WAL tail to protect", i)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			path := filepath.Join(dir, tc.file)
			flags := os.O_WRONLY | os.O_CREATE | os.O_EXCL
			if tc.extend {
				flags = os.O_WRONLY | os.O_APPEND
			}
			if tc.overwrite {
				flags = os.O_WRONLY | os.O_TRUNC
			}
			f, err := os.OpenFile(path, flags, 0o644)
			if err == nil {
				_, err = f.Write(tc.data)
			}
			if err == nil {
				err = f.Close()
			}
			if err != nil {
				t.Fatalf("plant %s: %v", tc.file, err)
			}
			before := treeDigest(t, dir)

			s, err = Open(dir, opt)
			if err == nil {
				_ = s.Close()
			}
			if !errors.Is(err, ErrUnsupportedFormat) || !strings.Contains(err.Error(), path) {
				t.Fatalf("Open err = %v, want ErrUnsupportedFormat naming %s", err, path)
			}
			if after := treeDigest(t, dir); !reflect.DeepEqual(after, before) {
				t.Errorf("refused Open changed the data directory:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}
