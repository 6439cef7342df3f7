// Shard: one independent WAL + snapshot + mutex + sequence space. The
// Store partitions users across shards by hash (store.go), so enrolls for
// different shards never contend on a lock or an fsync, and enroll
// throughput scales with shards up to the core/disk budget.
//
// Writes are group-committed (commit.go): one committer per shard writes
// and fsyncs a batch of records without the shard lock.
//
// Compaction is off the request path. When a shard crosses its
// SnapshotEvery threshold, the committer of the batch that crossed it
// only *seals* the active WAL segment — a rename and a file create, done
// without the shard lock — and hands a copy-on-write view of the
// in-memory state to the shard's compaction worker; the worker writes
// the snapshot and deletes the sealed segments it covers while enrolls
// keep appending to a fresh segment. The COW view is a shallow copy of
// the user/model maps: mutations only ever append beyond a captured
// slice's length or replace map entries in the live map, so the captured
// view stays frozen without copying any window data.
//
// Crash safety: a sealed segment is just the old WAL file under a new
// name, so until the worker's snapshot lands, every record is still on
// disk — a crash mid-compaction replays snapshot + sealed segments +
// active segment, in order, and loses nothing. Segment deletion happens
// only after the covering snapshot has been atomically published.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smarteryou/internal/binio"
	"smarteryou/internal/cas"
	"smarteryou/internal/features"
)

// compactionTestHook, when set before Open, is invoked by every
// compaction worker after it has dequeued a job and before it writes the
// snapshot. Tests use it to hold a compaction in flight (proving enrolls
// do not block on it) and to photograph the mid-compaction disk state.
var compactionTestHook func()

// compactJob is one queued background compaction: a frozen view of the
// shard state plus the sealed segments the resulting snapshot supersedes.
type compactJob struct {
	lastSeq uint64
	users   map[string][]features.WindowSample
	models  map[string][]modelRef
	sealed  []string
}

// shard is one partition of the store. All fields after mu are guarded by
// it, except that heads and closed are also read without it, and that a
// committer uses wal and sealCounter without it while committing is set;
// the compaction worker only touches shared state under mu.
type shard struct {
	dir string
	opt Options
	// cs is the store-wide content-addressed chunk store; model bundles
	// and snapshot window blobs live there, the registry holds manifests.
	cs *cas.Store
	// idx is the shard's index in its parent store; notify, when set,
	// receives every durable append (the replication fan-out), its payload
	// borrowed from a batch buffer the shard reuses. Both are fixed before
	// the store is handed to any caller.
	idx    int
	notify func(shard int, seq uint64, payload []byte)

	mu sync.Mutex
	// cond signals pending/compacting/closing transitions to the
	// compaction worker and its drainers; batchCond signals batch
	// transitions (commit.go), so a commit does not wake the worker.
	cond, batchCond *sync.Cond

	wal         *os.File // active segment (walFile)
	walBytes    int64    // bytes in the active segment
	sealedBytes int64    // bytes across sealed, not-yet-compacted segments
	sealCounter uint64   // next sealed segment index

	// nextSeq is the next sequence number to assign; durableSeq is the
	// last one whose record is written, synced and applied — what readers
	// and the replication cursors see. Records in between are in a batch.
	nextSeq    uint64
	durableSeq uint64
	// The committer's state (commit.go): the batch writers join, the batch
	// being written, whether a commit is at work, the open batch's
	// generation, the last finished one, and failed batches' errors.
	open, flight batch
	committing   bool
	gen, doneGen uint64
	failed       []batchFailure
	// snapBaseSeq is the last sequence number covered by the published
	// snapshot; records at or below it are no longer on disk as log
	// records. The replication catch-up reader compares cursors to it.
	snapBaseSeq   uint64
	sinceSnapshot int
	snapshotTime  time.Time
	hasSnapshot   bool
	users         map[string][]features.WindowSample
	models        map[string][]modelRef
	// heads is each registry key's latest (version, hash), for readers
	// that must not wait on mu (head.go): written under mu at every change
	// of models, read without it.
	heads    sync.Map // registry key → *modelHead
	recovery Recovery
	// closed is set under mu by close and read without it by heads'
	// readers.
	closed  atomic.Bool
	closing bool
	// sealed freezes local mutations (enroll, publish) during a cluster
	// shard handoff; replicated applies still land, since the new owner's
	// records must keep flowing into this replica after the transfer.
	sealed bool

	pending      *compactJob // coalesced queue of depth one
	orphanSealed []string    // sealed segments awaiting the next snapshot (compactJob.sealed)
	compacting   bool
	compactErr   error
	workerDone   chan struct{}
}

// openShard recovers one shard directory: snapshot.cas, then sealed
// segments in order, then the active WAL, truncating at the first damage
// (see replay). It starts the shard's compaction worker.
func openShard(dir string, opt Options, cs *cas.Store) (*shard, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create shard directory: %w", err)
	}
	s := &shard{
		dir:        dir,
		opt:        opt,
		cs:         cs,
		users:      make(map[string][]features.WindowSample),
		models:     make(map[string][]modelRef),
		workerDone: make(chan struct{}),
		gen:        1,
	}
	s.cond, s.batchCond = sync.NewCond(&s.mu), sync.NewCond(&s.mu)

	state, mtime, ok, err := loadShardState(dir, cs)
	if err != nil {
		return nil, err
	}
	lastSeq := uint64(0)
	if ok {
		lastSeq = state.lastSeq
		s.snapBaseSeq = state.lastSeq
		s.hasSnapshot = true
		s.snapshotTime = mtime
		for id, samples := range state.users {
			s.users[id] = samples
		}
		for id, versions := range state.models {
			s.models[id] = s.trimVersions(id, versions)
		}
	}

	if err := s.replay(lastSeq, &lastSeq); err != nil {
		return nil, err
	}
	s.resetHeadsLocked()
	s.nextSeq, s.durableSeq = lastSeq+1, lastSeq
	go s.worker()
	return s, nil
}

// sealedSegments lists the shard's sealed WAL segments in replay order
// and returns the next free segment counter.
func sealedSegments(dir string) (paths []string, next uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("store: list shard directory: %w", err)
	}
	for _, e := range entries {
		var n uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.sealed", &n); err == nil {
			paths = append(paths, filepath.Join(dir, e.Name()))
			if n+1 > next {
				next = n + 1
			}
		}
	}
	sort.Strings(paths) // zero-padded counters: lexical order = replay order
	return paths, next, nil
}

// replay applies every intact record with seq > snapSeq from the sealed
// segments and the active WAL, in order. The first torn or corrupt record
// makes everything after it untrustworthy — the rest of that file and all
// later segments are discarded (counted in recovery.TruncatedBytes), the
// damaged file is truncated at the damage, and later sealed segments are
// removed. An intact record in an unreadable format aborts the replay
// before any of that: nothing has been truncated or removed when
// ErrUnsupportedFormat is returned, because files are only ever cut at or
// after the first damage and nothing past damage is decoded.
func (s *shard) replay(snapSeq uint64, lastSeq *uint64) error {
	sealed, next, err := sealedSegments(s.dir)
	if err != nil {
		return err
	}
	s.sealCounter = next

	damaged := false
	for _, path := range sealed {
		if damaged {
			if info, err := os.Stat(path); err == nil {
				s.recovery.TruncatedBytes += info.Size()
			}
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("store: drop post-damage segment: %w", err)
			}
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: read sealed segment: %w", err)
		}
		keep, err := s.replayBuf(data, snapSeq, lastSeq)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if keep < len(data) {
			damaged = true
			if err := os.Truncate(path, int64(keep)); err != nil {
				return fmt.Errorf("store: truncate damaged segment: %w", err)
			}
		}
		if keep == 0 {
			_ = os.Remove(path)
		} else {
			s.sealedBytes += int64(keep)
			s.orphanSealed = append(s.orphanSealed, path)
		}
	}

	walPath := filepath.Join(s.dir, walFile)
	wal, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: open wal: %w", err)
	}
	data, err := io.ReadAll(wal)
	if err != nil {
		_ = wal.Close()
		return fmt.Errorf("store: read wal: %w", err)
	}
	keep := 0
	if damaged {
		s.recovery.TruncatedBytes += int64(len(data))
	} else if keep, err = s.replayBuf(data, snapSeq, lastSeq); err != nil {
		_ = wal.Close()
		return fmt.Errorf("%s: %w", walPath, err)
	}
	if keep < len(data) {
		if err := wal.Truncate(int64(keep)); err != nil {
			_ = wal.Close()
			return fmt.Errorf("store: truncate torn wal tail: %w", err)
		}
	}
	if _, err := wal.Seek(int64(keep), io.SeekStart); err != nil {
		_ = wal.Close()
		return fmt.Errorf("store: seek wal end: %w", err)
	}
	s.wal = wal
	s.walBytes = int64(keep)
	return nil
}

// replayBuf applies intact records from one segment buffer and returns
// how many prefix bytes were intact, accounting anything torn or corrupt
// past that to recovery.TruncatedBytes for the caller to truncate. An
// intact record in an unreadable format is not damage: it is the error.
func (s *shard) replayBuf(data []byte, snapSeq uint64, lastSeq *uint64) (int, error) {
	off := 0
	for off < len(data) {
		rec, n, err := checkRecordIn(data[off:], s.users)
		if err != nil {
			if errors.Is(err, ErrUnsupportedFormat) {
				return off, fmt.Errorf("record at offset %d: %w", off, err)
			}
			s.recovery.TruncatedBytes += int64(len(data) - off)
			return off, nil
		}
		if rec.Seq > snapSeq {
			// Cannot fail: checkRecordIn accepted the record.
			_ = s.applyPayload(data[off+recordHeaderSize : off+n])
			s.recovery.Replayed++
			if rec.Seq > *lastSeq {
				*lastSeq = rec.Seq
			}
		} else {
			s.recovery.SkippedBySnapshot++
		}
		off += n
	}
	return off, nil
}

// apply executes one logged mutation against the in-memory state. For
// model publication, the keep-last-K retention policy is enforced here,
// so it covers live publishes and replayed history alike.
func (s *shard) apply(rec walRecord) {
	switch rec.Op {
	case opEnroll:
		s.users[rec.User] = append(s.users[rec.User], rec.Samples...)
	case opReplace:
		s.users[rec.User] = append(replaced(len(rec.Samples)), rec.Samples...)
	case opPublish:
		// The bundle is interned into the CAS (memory-resident until the
		// next snapshot flushes its chunks); the registry keeps a pointer.
		ref := modelRef{Version: rec.Version, Man: s.cs.Put(rec.Bundle)}
		s.models[rec.User] = s.trimVersions(rec.User, append(s.models[rec.User], ref))
		s.setHeadLocked(rec.User)
	}
}

// applyPayload is apply for a logged record's payload — one replayed at
// Open or replicated — decoding its windows where they are kept: an
// enroll's onto the end of the user's slice, a replace's into a slice
// from replaced. A payload that does not decode changes nothing: the
// windows it wrote past the user's slice's length belong to no view.
func (s *shard) applyPayload(payload []byte) error {
	r := binio.NewReader(payload)
	rec, n := readPayloadHead(r, s.users)
	var w []features.WindowSample
	switch rec.Op {
	case opEnroll:
		w = features.ReadSamplesBinary(r, slices.Grow(s.users[rec.User], n), n, rec.User)
	case opReplace:
		w = features.ReadSamplesBinary(r, replaced(n), n, rec.User)
	}
	if err := endPayload(r); err != nil {
		return err
	}
	if rec.Op == opPublish {
		s.apply(rec) // the CAS put copies the bundle
	} else {
		s.users[rec.User] = w
	}
	return nil
}

// replaced is the slice a replace of n windows stores them in: room for
// as many again, so the enroll that follows a retraining upload appends
// without copying the windows again. A replaced user holds up to twice
// its windows' memory until that enroll.
func replaced(n int) []features.WindowSample {
	if n == 0 {
		return nil
	}
	return make([]features.WindowSample, 0, 2*n)
}

// trimVersions applies the retention policy to one registry entry's
// history: Options.KeepModelVersions for users, and always just the
// latest checkpoint for the drift-state key (each checkpoint supersedes
// the previous one entirely, so keeping history would grow the registry
// by a full fleet snapshot per flush). Dropping a version is a refcount
// decrement on its chunks — bytes shared with surviving versions stay,
// and the rest become garbage for the next sweep.
func (s *shard) trimVersions(id string, vs []modelRef) []modelRef {
	k := s.opt.KeepModelVersions
	if id == driftStateKey {
		k = 1
	}
	if k <= 0 || len(vs) <= k {
		return vs
	}
	for _, mv := range vs[:len(vs)-k] {
		s.cs.Release(mv.Man)
	}
	return append([]modelRef(nil), vs[len(vs)-k:]...)
}

// retainModels/releaseModels bracket a captured copy-on-write view of the
// registry (compaction job, snapshot encode, delta encode): while the
// view is alive, a concurrent keep-last-K trim must not free the chunks
// it points at.
func (s *shard) retainModels(models map[string][]modelRef) {
	for _, vs := range models {
		for _, mv := range vs {
			// Cannot fail: every ref in the live map holds its chunks.
			_ = s.cs.Retain(mv.Man)
		}
	}
}

func (s *shard) releaseModels(models map[string][]modelRef) {
	for _, vs := range models {
		for _, mv := range vs {
			s.cs.Release(mv.Man)
		}
	}
}

// modelBlob resolves one registry entry to its bundle bytes. version 0
// means latest. The manifest is retained across the CAS read so a
// concurrent trim cannot free its chunks between the registry lookup and
// the reassembly.
func (s *shard) modelBlob(id string, version int) ([]byte, cas.Hash, int, error) {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil, cas.Hash{}, 0, ErrClosed
	}
	vs := s.models[id]
	var ref modelRef
	found := false
	if version == 0 {
		if len(vs) > 0 {
			ref = vs[len(vs)-1]
			found = true
		}
	} else {
		for _, mv := range vs {
			if mv.Version == version {
				ref = mv
				found = true
				break
			}
		}
	}
	if !found {
		s.mu.Unlock()
		return nil, cas.Hash{}, 0, ErrNoModel
	}
	// Cannot fail: the ref is in the live map, so its chunks are held.
	_ = s.cs.Retain(ref.Man)
	s.mu.Unlock()
	defer s.cs.Release(ref.Man)

	blob, err := s.cs.Get(ref.Man)
	if err != nil {
		return nil, cas.Hash{}, 0, fmt.Errorf("store: model %q v%d: %w", id, ref.Version, err)
	}
	return blob, ref.Man.Sum, ref.Version, nil
}

func (s *shard) enroll(user string, samples []features.WindowSample, replace bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if s.sealed {
		return ErrSealed
	}
	op := opEnroll
	if replace {
		op = opReplace
	}
	return s.commitLocked(walRecord{Op: op, User: user, Samples: samples})
}

func (s *shard) publishModel(user string, blob []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if s.sealed {
		return 0, ErrSealed
	}
	version := s.nextVersionLocked(user)
	if err := s.commitLocked(walRecord{Op: opPublish, User: user, Version: version, Bundle: blob}); err != nil {
		return 0, err
	}
	return version, nil
}

// sealSegment renames the active WAL segment to the next sealed name and
// opens a fresh one: a rename and a file create. Unless synced says the
// segment's last write was fsynced, it fsyncs the segment first (not
// under NoSync). The caller has the WAL to itself: it is the committer,
// or it holds mu while no commit is at work.
func (s *shard) sealSegment(synced bool) (string, *os.File, error) {
	if !synced && !s.opt.NoSync {
		if err := s.wal.Sync(); err != nil {
			return "", nil, fmt.Errorf("store: sync segment before seal: %w", err)
		}
	}
	walPath := filepath.Join(s.dir, walFile)
	sealedPath := filepath.Join(s.dir, sealedSegmentName(s.sealCounter))
	if err := os.Rename(walPath, sealedPath); err != nil {
		return "", nil, fmt.Errorf("store: seal wal segment: %w", err)
	}
	fresh, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		// Roll the seal back: the old fd still points at the renamed
		// file, so un-renaming restores the exact previous state.
		_ = os.Rename(sealedPath, walPath)
		return "", nil, fmt.Errorf("store: open fresh wal segment: %w", err)
	}
	return sealedPath, fresh, nil
}

// installSealLocked makes the fresh segment sealSegment opened the active
// one and queues the sealed one for the next snapshot; a seal that failed
// is recorded for drainLocked instead, and false returned.
func (s *shard) installSealLocked(sealedPath string, fresh *os.File, err error) bool {
	if err != nil {
		s.compactErr = err
		return false
	}
	_ = s.wal.Close()
	s.wal = fresh
	s.sealCounter++
	s.sealedBytes += s.walBytes
	s.walBytes = 0
	s.orphanSealed = append(s.orphanSealed, sealedPath)
	return true
}

// queueCompactionLocked seals the active WAL segment, if it holds
// records, and queues a compaction. Called with s.mu held and no commit
// at work: the seal's rename and file create run under the lock here, as
// only an explicit Snapshot takes this path.
func (s *shard) queueCompactionLocked() {
	if s.walBytes > 0 && !s.installSealLocked(s.sealSegment(false)) {
		return
	}
	s.queueJobLocked()
}

// queueJobLocked hands a copy-on-write view of the durable state, and
// every sealed segment it covers, to the compaction worker.
func (s *shard) queueJobLocked() {
	s.sinceSnapshot = 0
	users := make(map[string][]features.WindowSample, len(s.users))
	for id, samples := range s.users {
		users[id] = samples
	}
	models := make(map[string][]modelRef, len(s.models))
	for id, versions := range s.models {
		models[id] = versions
	}
	// The job owns a reference on every captured manifest so a trim that
	// lands before the snapshot write cannot free chunks the write needs.
	s.retainModels(models)
	job := &compactJob{lastSeq: s.durableSeq, users: users, models: models, sealed: s.orphanSealed}
	s.orphanSealed = nil
	if s.pending != nil {
		// Coalesce: the newer view supersedes the queued one; carry its
		// sealed segments forward so they are still deleted, and drop the
		// superseded view's manifest references.
		job.sealed = append(job.sealed, s.pending.sealed...)
		s.releaseModels(s.pending.models)
	}
	s.pending = job
	s.cond.Broadcast()
}

// worker is the shard's compaction goroutine: it drains queued jobs,
// writing each snapshot without holding the shard lock.
func (s *shard) worker() {
	defer close(s.workerDone)
	s.mu.Lock()
	for {
		for s.pending == nil && !s.closing {
			s.cond.Wait()
		}
		if s.pending == nil && s.closing {
			s.mu.Unlock()
			return
		}
		job := s.pending
		s.pending = nil
		s.compacting = true
		s.mu.Unlock()

		if hook := compactionTestHook; hook != nil {
			hook()
		}
		err := writeStateCAS(s.dir, s.cs, job.lastSeq, job.users, job.models)
		s.releaseModels(job.models)
		if err == nil {
			// The new snapshot's pins are in place; anything the dropped
			// versions no longer share is reclaimable now.
			s.cs.Sweep()
		}

		s.mu.Lock()
		s.compacting = false
		if err != nil {
			// The sealed segments still hold every record; keep them for
			// the next attempt so nothing is lost, and surface the error.
			s.compactErr = err
			s.orphanSealed = append(s.orphanSealed, job.sealed...)
		} else {
			s.hasSnapshot = true
			s.snapshotTime = time.Now()
			if job.lastSeq > s.snapBaseSeq {
				s.snapBaseSeq = job.lastSeq
			}
			for _, p := range job.sealed {
				if info, statErr := os.Stat(p); statErr == nil {
					s.sealedBytes -= info.Size()
				}
				_ = os.Remove(p)
			}
		}
		s.cond.Broadcast()
	}
}

// drainLocked waits until no compaction is queued or in flight, then
// reports (and clears) any compaction error.
func (s *shard) drainLocked() error {
	for s.pending != nil || s.compacting {
		s.cond.Wait()
	}
	err := s.compactErr
	s.compactErr = nil
	return err
}

// snapshotSync forces a compaction of the current state and waits for it
// (and anything queued before it) to land.
func (s *shard) snapshotSync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	for s.committing {
		s.batchCond.Wait()
	}
	s.queueCompactionLocked()
	if s.compactErr != nil {
		err := s.compactErr
		s.compactErr = nil
		return err
	}
	return s.drainLocked()
}

// close drains the compaction worker, then flushes and closes the log.
func (s *shard) close() error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil
	}
	s.closed.Store(true)
	s.waitCommitsLocked()
	drainErr := s.drainLocked()
	s.closing = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.workerDone

	if err := s.wal.Sync(); err != nil {
		_ = s.wal.Close()
		return fmt.Errorf("store: sync wal on close: %w", err)
	}
	if err := s.wal.Close(); err != nil {
		return fmt.Errorf("store: close wal: %w", err)
	}
	return drainErr
}

// shardStatsLocked snapshots the shard's counters. Caller must hold mu.
func (s *shard) stats() ShardStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ShardStats{
		Users:    len(s.users),
		WALBytes: s.walBytes + s.sealedBytes,
		Records:  s.durableSeq,
		LastSeq:  s.durableSeq,
	}
	for _, samples := range s.users {
		st.Windows += len(samples)
	}
	return st
}
