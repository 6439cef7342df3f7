package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"smarteryou/internal/features"
)

// On-disk layout inside a shard directory.
const (
	// walFile is the active WAL segment. Compaction seals it by renaming
	// it to a numbered sealedSegmentPattern file and starting a fresh one.
	walFile   = "wal.log"
	tmpSuffix = ".tmp"
)

// retiredSnapshotFiles are the snapshot file names of earlier store
// generations. This build cannot read them, and opening around one would
// silently drop the state it holds, so Open refuses a directory that
// contains either (refuseUnsupportedFiles).
var retiredSnapshotFiles = []string{"snapshot.json", "snapshot.bin"}

// refuseUnsupportedFiles fails with ErrUnsupportedFormat, naming the file,
// when dir or any shard directory under it holds a snapshot file this
// build cannot read, or when dir itself holds a shard's WAL, sealed
// segment or snapshot: an earlier layout kept a one-shard store there
// instead of in shard-0000/, and opening around it would start an empty
// store beside it. It runs before Open creates, truncates or removes
// anything.
func refuseUnsupportedFiles(dir string) error {
	dirs := []string{dir}
	entries, _ := os.ReadDir(dir) // a missing dir holds nothing to refuse
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() && strings.HasPrefix(name, "shard-") {
			dirs = append(dirs, filepath.Join(dir, name))
			continue
		}
		if isShardFile(name) {
			return fmt.Errorf("%w: %s", ErrUnsupportedFormat, filepath.Join(dir, name))
		}
	}
	for _, d := range dirs {
		for _, name := range retiredSnapshotFiles {
			path := filepath.Join(d, name)
			if _, err := os.Stat(path); err == nil {
				return fmt.Errorf("%w: %s", ErrUnsupportedFormat, path)
			}
		}
	}
	return nil
}

// isShardFile reports whether name is one of the files that hold a
// shard's state: its WAL, a sealed segment or its snapshot.
func isShardFile(name string) bool {
	sealed, _ := filepath.Match("wal-*.sealed", name)
	return sealed || name == walFile || name == casSnapshotFile
}

// sealedSegmentName formats a sealed (read-only) WAL segment name; the
// counter orders segments for replay.
func sealedSegmentName(n uint64) string {
	return fmt.Sprintf("wal-%08d.sealed", n)
}

// snapshot is a shard's full state with every window and bundle inline,
// up to (and including) LastSeq — the body of a replication full-snapshot
// frame (encodeBinarySnapshot). On disk the state is content-addressed
// instead (cas_state.go).
type snapshot struct {
	LastSeq uint64
	Users   map[string][]features.WindowSample
	Models  map[string][]ModelVersion
}

// writeFileDurable atomically replaces dir/name with data: temp file,
// fsync, rename, directory fsync.
func writeFileDurable(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+tmpSuffix)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create %s temp: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: sync %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", name, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("store: publish %s: %w", name, err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable. Best
// effort: some platforms reject directory syncs, and the rename itself is
// already atomic.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
