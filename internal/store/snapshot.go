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
// contains either (refuseRetiredSnapshots).
var retiredSnapshotFiles = []string{"snapshot.json", "snapshot.bin"}

// refuseRetiredSnapshots fails with ErrUnsupportedFormat when dir, or any
// shard directory under it, holds a snapshot file this build cannot read.
// It runs before Open creates, truncates or removes anything.
func refuseRetiredSnapshots(dir string) error {
	dirs := []string{dir}
	entries, _ := os.ReadDir(dir) // a missing dir holds nothing to refuse
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			dirs = append(dirs, filepath.Join(dir, e.Name()))
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
