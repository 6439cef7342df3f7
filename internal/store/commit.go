package store

import (
	"fmt"
	"io"
	"os"
	"slices"
)

// Group commit: one committer per shard. A write (enroll, publish, or a
// replicated record) does only this under the shard lock: it checks
// closed (and sealed, for a local write), takes the next sequence number,
// encodes its record into the shard's open batch and waits for the batch.
// A batch's committer is its first waiter that finds no commit at work —
// no goroutine of its own, no option. The committer takes the open batch
// (later writes start the next one), and without the lock writes it with
// one WAL write, fsyncs it once and, when compaction is due, seals the
// segment. Then it retakes the lock, applies the records in sequence
// order, hands each to replication, hands compaction its view and wakes
// the waiters. So a write becomes visible — to readers, to the lock-free
// model head and to durableSeq, the cursor ShardLastSeqs reports — only
// after its batch's fsync, and writers to one shard share their fsyncs
// instead of queueing behind each other's.
//
// A batch that fails its write or its fsync fails every write in it and
// every write queued behind it (their sequence numbers follow the failed
// ones): the log is truncated back to the batch start and the sequence
// rewinds to its first record. Waiting allocates nothing: waiters sleep
// on the shard's batch condition variable (not the compaction worker's)
// and watch the batch generation.

// commitTestHook, when set before Open, is called by every committer,
// without the shard lock, before each step of a commit: "write" before
// the batch's WAL write and "sync" before its fsync. An error it returns
// fails that step as the disk would. Tests use it to pause a commit
// between its write and its fsync, to count fsyncs and to inject write
// errors.
var commitTestHook func(step string) error

// retainBatchBytes bounds the batch buffer a shard keeps for reuse: a
// batch that carried a larger bundle gives its buffer back to the GC.
const retainBatchBytes = 1 << 20

// pendingWrite is one record of a batch: the bounds of its frame in the
// batch buffer, and the record. A local record carries its caller's
// windows or bundle, which stay valid because the caller waits for the
// batch. A replicated record carries neither; its apply decodes its
// frame.
type pendingWrite struct {
	rec        walRecord
	off, end   int
	replicated bool
}

// batch is consecutive records that one WAL write logs and at most one
// fsync makes durable.
type batch struct {
	buf    []byte
	writes []pendingWrite
	sync   bool // some record in it must be fsynced before it is acknowledged
}

// batchFailure keeps a failed batch's error until each of its writers
// has read it.
type batchFailure struct {
	gen     uint64
	err     error
	waiters int
}

// commitLocked logs rec under the next sequence number and returns once
// its batch has committed: rec is then durable, applied and handed to
// replication, or the batch failed and nothing of it was applied. Called
// with mu held.
func (s *shard) commitLocked(rec walRecord) error {
	rec.Seq = s.nextSeq
	off := len(s.open.buf)
	buf, err := appendRecord(s.open.buf, rec)
	if err != nil {
		return err
	}
	s.open.buf = buf
	s.open.writes = append(s.open.writes, pendingWrite{rec: rec, off: off, end: len(buf)})
	s.open.sync = s.open.sync || !s.opt.NoSync
	s.nextSeq++
	return s.awaitLocked(s.gen)
}

// awaitLocked waits until batch gen has committed, committing it itself
// when no commit is at work, and returns the batch's error. Called with
// mu held, which batchCond.Wait gives up while it sleeps.
func (s *shard) awaitLocked(gen uint64) error {
	for s.doneGen < gen {
		if s.committing {
			s.batchCond.Wait()
			continue
		}
		// No commit at work and gen not done: gen is the open batch.
		s.commitBatchLocked()
	}
	for i := range s.failed {
		if f := &s.failed[i]; f.gen == gen {
			err := f.err
			if f.waiters--; f.waiters == 0 {
				s.failed = slices.Delete(s.failed, i, i+1)
			}
			return err
		}
	}
	return nil
}

// commitBatchLocked commits the open batch. Called with mu held and no
// commit at work; it gives mu up for the disk and returns holding it.
func (s *shard) commitBatchLocked() {
	b, gen, start := s.open, s.gen, s.walBytes
	s.open, s.flight = batch{buf: s.flight.buf[:0], writes: s.flight.writes[:0]}, b
	s.gen++
	s.committing = true
	seal := s.opt.SnapshotEvery >= 0 && s.sinceSnapshot+len(b.writes) >= s.opt.SnapshotEvery
	s.mu.Unlock()

	// The committer has the WAL's end to itself: every other writer of
	// s.wal waits for committing to clear (recordsSince only reads the
	// durable bytes before start).
	err := s.writeBatch(b, start)
	var sealedPath string
	var fresh *os.File
	var sealErr error
	if err == nil && seal {
		sealedPath, fresh, sealErr = s.sealSegment(b.sync)
	}

	s.mu.Lock()
	s.committing = false
	if err != nil {
		s.failLocked(gen, b, err)
	} else {
		s.walBytes += int64(len(b.buf))
		s.sinceSnapshot += len(b.writes)
		for _, w := range b.writes {
			if w.replicated {
				// Cannot fail: checkRecordIn accepted the record before
				// it was logged.
				_ = s.applyPayload(b.buf[w.off+recordHeaderSize : w.end])
			} else {
				s.apply(w.rec)
			}
			s.durableSeq = w.rec.Seq
			if s.notify != nil {
				s.notify(s.idx, w.rec.Seq, b.buf[w.off+recordHeaderSize:w.end])
			}
		}
		s.doneGen = gen
		if seal && s.installSealLocked(sealedPath, fresh, sealErr) {
			s.queueJobLocked()
		}
	}
	clear(b.writes) // the callers' windows and bundles are theirs again
	if cap(b.buf) > retainBatchBytes {
		s.flight.buf = nil
	}
	s.batchCond.Broadcast()
}

// writeBatch writes a batch at the end of the WAL and fsyncs it when one
// of its records asks for that. On an error it truncates the WAL back to
// start, the batch's first byte, so the log never carries a record that
// was not acknowledged.
func (s *shard) writeBatch(b batch, start int64) error {
	err := commitStep("write")
	if err == nil {
		_, err = s.wal.Write(b.buf)
	}
	if err != nil {
		err = fmt.Errorf("store: append wal record: %w", err)
	} else if b.sync {
		if err = commitStep("sync"); err == nil {
			err = s.wal.Sync()
		}
		if err != nil {
			err = fmt.Errorf("store: sync wal: %w", err)
		}
	}
	if err != nil {
		_ = s.wal.Truncate(start)
		_, _ = s.wal.Seek(start, io.SeekStart)
	}
	return err
}

func commitStep(step string) error {
	if hook := commitTestHook; hook != nil {
		return hook(step)
	}
	return nil
}

// failLocked fails batch gen and the open batch queued behind it, whose
// sequence numbers follow the failed ones: the sequence rewinds to the
// failed batch's first record, and every writer of either batch gets err.
func (s *shard) failLocked(gen uint64, b batch, err error) {
	s.nextSeq = b.writes[0].rec.Seq
	s.failed = append(s.failed, batchFailure{gen: gen, err: err, waiters: len(b.writes)})
	if n := len(s.open.writes); n > 0 {
		s.failed = append(s.failed, batchFailure{gen: s.gen, err: err, waiters: n})
		clear(s.open.writes)
		s.open = batch{buf: s.open.buf[:0], writes: s.open.writes[:0]}
		s.gen++
	}
	s.doneGen = s.gen - 1
}

// waitCommitsLocked waits until no batch is open or in flight: the state
// an install, which resets the log and the sequence, and close need.
func (s *shard) waitCommitsLocked() {
	for s.committing || len(s.open.writes) > 0 {
		s.batchCond.Wait()
	}
}

// nextVersionLocked is user's next model version: one past its latest
// publish, counting the publishes still in a batch.
func (s *shard) nextVersionLocked(user string) int {
	for _, ws := range [2][]pendingWrite{s.open.writes, s.flight.writes} {
		for i := len(ws) - 1; i >= 0; i-- {
			if w := ws[i].rec; w.Op == opPublish && w.User == user {
				return w.Version + 1
			}
		}
	}
	if vs := s.models[user]; len(vs) > 0 {
		return vs[len(vs)-1].Version + 1
	}
	return 1
}
