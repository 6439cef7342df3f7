// Replication support: the sequence-numbered WAL records that make the
// store durable (wal.go) double as its replication log. This file exports
// the leader-side and follower-side halves of that idea without the store
// knowing anything about networking:
//
//   - a leader tails each shard through SubscribeReplication (live
//     appends, delivered in sequence order under the shard lock) and
//     ShardRecordsSince (the on-disk backlog since a follower's cursor);
//   - a follower that has fallen behind a compacted segment bootstraps
//     from ShardSnapshotBytes — the same copy-on-write view the
//     background compactor uses, so appends never pause — and installs it
//     with InstallShardSnapshot;
//   - ApplyReplicated commits a leader-assigned record through the local
//     shard's committer (durable before acknowledged, exactly like a local
//     enroll), preserving the leader's sequence numbers so a promoted
//     follower continues the same per-shard sequence space.
//
// The wire protocol that moves these bytes between machines lives in
// internal/replication; this file is deliberately its only store surface.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"smarteryou/internal/cas"
	"smarteryou/internal/features"
)

// Errors returned by the replication surface.
var (
	// ErrCompacted indicates the requested records were already folded
	// into a snapshot and deleted from the log; the caller must fall back
	// to snapshot shipping.
	ErrCompacted = errors.New("store: records compacted into snapshot")
	// ErrSequenceGap indicates a replicated record skipped ahead of the
	// shard's next expected sequence number — records were lost in
	// transit and the stream must restart from the durable cursor.
	ErrSequenceGap = errors.New("store: replicated record out of sequence")
	// ErrSealed indicates a local mutation hit a shard frozen for a
	// cluster handoff; the caller should back off briefly and retry (the
	// new owner finishes taking over within the seal window).
	ErrSealed = errors.New("store: shard is sealed for handoff")
)

// ReplRecord is one replicable WAL record: its shard-local sequence
// number and the encoded payload (codec.go; the format byte is its first
// byte).
type ReplRecord struct {
	Seq     uint64
	Payload []byte
}

// ReplicatedOp locates a mutation applied through ApplyReplicated: the
// cursor a replication follower acknowledges. It says nothing of the
// mutation's content — whoever serves the data reads it from the store.
type ReplicatedOp struct {
	Shard int
	Seq   uint64
}

// ReplSink receives every durably appended record. It is invoked
// synchronously under the appending shard's lock, by the committer of the
// record's batch once the batch is durable — per-shard delivery is
// therefore in strict sequence order — so implementations must be fast
// and must never block (hand the record to a queue and return).
type ReplSink func(shard int, seq uint64, payload []byte)

// ShardCount reports the store's (pinned) shard count.
func (s *Store) ShardCount() int { return len(s.shards) }

// ShardLastSeqs reports each shard's last durable sequence number — the
// replication cursor a follower acknowledges and a leader resumes from.
func (s *Store) ShardLastSeqs() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = sh.durableSeq
		sh.mu.Unlock()
	}
	return out
}

// SubscribeReplication registers a sink for all future durable appends
// (local mutations and replicated ones alike, so followers can feed
// their own followers). It returns a cancel function; after cancel
// returns no further calls are made.
func (s *Store) SubscribeReplication(sink ReplSink) (cancel func()) {
	s.replMu.Lock()
	id := s.replNextID
	s.replNextID++
	if s.replSinks == nil {
		s.replSinks = make(map[uint64]ReplSink)
	}
	s.replSinks[id] = sink
	s.replMu.Unlock()
	return func() {
		s.replMu.Lock()
		delete(s.replSinks, id)
		s.replMu.Unlock()
	}
}

// notifyRepl fans one appended record out to the registered sinks. It
// runs under the appending shard's mutex, which is what serializes
// per-shard delivery in sequence order. The payload is borrowed from a
// batch buffer the shard reuses: the sinks get one copy of it, made only
// when there is a sink.
func (s *Store) notifyRepl(shard int, seq uint64, payload []byte) {
	s.replMu.RLock()
	if len(s.replSinks) > 0 {
		payload = bytes.Clone(payload)
	}
	for _, sink := range s.replSinks {
		sink(shard, seq, payload)
	}
	s.replMu.RUnlock()
}

// SealShard freezes local mutations (enroll, publish) on one shard and
// returns its last durable sequence number — the handoff cursor. It
// returns once every batch open when the flag was set has committed, so
// no local write can land after the returned cursor: once the new owner
// has converged to it, the sequence space transfers with no concurrent
// writer. Replicated applies are exempt (they carry owner-assigned
// sequence numbers). Sealing an already-sealed shard just re-reads the
// cursor.
func (s *Store) SealShard(shard int) (uint64, error) {
	if shard < 0 || shard >= len(s.shards) {
		return 0, fmt.Errorf("store: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	sh := s.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed.Load() {
		return 0, ErrClosed
	}
	sh.sealed = true
	gen := sh.gen
	if len(sh.open.writes) == 0 {
		gen-- // the batch in flight, if any
	}
	for sh.doneGen < gen {
		sh.batchCond.Wait()
	}
	return sh.durableSeq, nil
}

// SyncShard fsyncs one shard's WAL. Under Options.ReplicaNoSync this is
// the durability barrier a replica must pass before becoming a shard's
// owner: after it returns, every record the shard has applied — local or
// replicated — is on disk, so the new owner's "acknowledged means
// durable" guarantee starts from a clean base.
func (s *Store) SyncShard(shard int) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("store: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	sh := s.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed.Load() {
		return ErrClosed
	}
	if err := sh.wal.Sync(); err != nil {
		return fmt.Errorf("store: sync shard %d wal: %w", shard, err)
	}
	return nil
}

// UnsealShard lifts a handoff freeze (an aborted handoff, or the old
// owner unfreezing after ownership moved — at which point routing, not
// the seal, keeps local writes away).
func (s *Store) UnsealShard(shard int) {
	if shard < 0 || shard >= len(s.shards) {
		return
	}
	sh := s.shards[shard]
	sh.mu.Lock()
	sh.sealed = false
	sh.mu.Unlock()
}

// ShardRecordsSince returns the shard's intact on-disk records with
// sequence numbers strictly greater than fromSeq, in order. It returns
// ErrCompacted when records after fromSeq are no longer on disk (they
// were folded into a snapshot) — the caller should ship a snapshot
// instead. The scan holds the shard lock; compaction keeps the live log
// bounded, so the stall is bounded by the compaction cadence, not by the
// population size.
func (s *Store) ShardRecordsSince(shard int, fromSeq uint64) ([]ReplRecord, error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, fmt.Errorf("store: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	return s.shards[shard].recordsSince(fromSeq)
}

func (s *shard) recordsSince(fromSeq uint64) ([]ReplRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if fromSeq < s.snapBaseSeq {
		return nil, fmt.Errorf("%w: have records after %d, asked for after %d", ErrCompacted, s.snapBaseSeq, fromSeq)
	}
	sealed, _, err := sealedSegments(s.dir)
	if err != nil {
		return nil, err
	}
	// The scan does not wait for a commit at work: it reads the durable
	// records only. A segment the committer is sealing is not installed
	// yet — its records are read through s.wal below, whatever its name —
	// and the active segment is read up to walBytes, short of any batch
	// being written.
	sealing := filepath.Join(s.dir, sealedSegmentName(s.sealCounter))
	var out []ReplRecord
	next := fromSeq + 1
	scan := func(data []byte) error {
		off := 0
		for off < len(data) {
			rec, n, err := checkRecordIn(data[off:], s.users)
			if err != nil {
				// Live segments hold only intact records (failed appends
				// roll back); damage here means the disk changed under us.
				return fmt.Errorf("store: replication scan: %w", err)
			}
			if rec.Seq > fromSeq {
				if rec.Seq != next {
					return fmt.Errorf("%w: record %d follows %d", ErrCompacted, rec.Seq, next-1)
				}
				payload := append([]byte(nil), data[off+recordHeaderSize:off+n]...)
				out = append(out, ReplRecord{Seq: rec.Seq, Payload: payload})
				next = rec.Seq + 1
			}
			off += n
		}
		return nil
	}
	for _, path := range sealed {
		if path == sealing {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("store: read sealed segment: %w", err)
		}
		if err := scan(data); err != nil {
			return nil, err
		}
	}
	data := make([]byte, s.walBytes)
	if _, err := s.wal.ReadAt(data, 0); err != nil {
		return nil, fmt.Errorf("store: read wal: %w", err)
	}
	if err := scan(data); err != nil {
		return nil, err
	}
	return out, nil
}

// ShardSnapshotBytes encodes the shard's current state in the binary
// snapshot format (codec.go) from a copy-on-write view: the shard lock is
// held only long enough to shallow-copy the maps, so appends never wait
// on the encoding. It returns the snapshot bytes and the last sequence
// number they cover.
func (s *Store) ShardSnapshotBytes(shard int) ([]byte, uint64, error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, 0, fmt.Errorf("store: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	sh := s.shards[shard]
	sh.mu.Lock()
	if sh.closed.Load() {
		sh.mu.Unlock()
		return nil, 0, ErrClosed
	}
	lastSeq := sh.durableSeq
	users := make(map[string][]features.WindowSample, len(sh.users))
	for id, samples := range sh.users {
		users[id] = samples
	}
	models := make(map[string][]modelRef, len(sh.models))
	for id, versions := range sh.models {
		models[id] = versions
	}
	sh.retainModels(models)
	sh.mu.Unlock()
	defer sh.releaseModels(models)

	// The v1 wire format carries bundles inline; materialize them from the
	// CAS (the retained refs keep a concurrent trim from freeing chunks).
	snap := snapshot{
		LastSeq: lastSeq,
		Users:   users,
		Models:  make(map[string][]ModelVersion, len(models)),
	}
	for id, versions := range models {
		vs := make([]ModelVersion, 0, len(versions))
		for _, ref := range versions {
			blob, err := sh.cs.Get(ref.Man)
			if err != nil {
				return nil, 0, fmt.Errorf("store: materialize model %q v%d: %w", id, ref.Version, err)
			}
			vs = append(vs, ModelVersion{Version: ref.Version, Bundle: blob})
		}
		snap.Models[id] = vs
	}
	return encodeBinarySnapshot(snap), lastSeq, nil
}

// ShardDelta encodes the shard's current state as a content-addressed
// snapshot body — the exact bytes of its snapshot.cas file — plus every
// chunk the body references, from a copy-on-write view. A leader ships
// the body whole but filters the chunk set against the hashes the
// follower declared, so a lagging follower receives only what it lacks.
func (s *Store) ShardDelta(shard int) (body []byte, lastSeq uint64, chunks map[cas.Hash][]byte, err error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, 0, nil, fmt.Errorf("store: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	sh := s.shards[shard]
	sh.mu.Lock()
	if sh.closed.Load() {
		sh.mu.Unlock()
		return nil, 0, nil, ErrClosed
	}
	lastSeq = sh.durableSeq
	users := make(map[string][]features.WindowSample, len(sh.users))
	for id, samples := range sh.users {
		users[id] = samples
	}
	models := make(map[string][]modelRef, len(sh.models))
	for id, versions := range sh.models {
		models[id] = versions
	}
	sh.retainModels(models)
	sh.mu.Unlock()
	defer sh.releaseModels(models)

	b := casBody{
		LastSeq: lastSeq,
		Users:   make(map[string]cas.Manifest, len(users)),
		Models:  models,
	}
	chunks = make(map[cas.Hash][]byte)
	for id, samples := range users {
		m, parts := cas.ManifestOf(encodeWindowBlob(samples))
		for i, c := range m.Chunks {
			chunks[c.Hash] = parts[i]
		}
		b.Users[id] = m
	}
	for id, versions := range models {
		for _, ref := range versions {
			for _, c := range ref.Man.Chunks {
				if _, ok := chunks[c.Hash]; ok {
					continue
				}
				data, err := sh.cs.ChunkData(c.Hash)
				if err != nil {
					return nil, 0, nil, fmt.Errorf("store: delta chunk for model %q v%d: %w", id, ref.Version, err)
				}
				chunks[c.Hash] = data
			}
		}
	}
	return encodeCASBody(b), lastSeq, chunks, nil
}

// ApplyReplicated durably appends one leader-assigned record (WAL-first,
// preserving the embedded sequence number) and applies it in memory. A
// record below the shard's next sequence number is skipped idempotently
// (applied=false) so an at-least-once stream is safe to replay; a record
// beyond the next expected sequence number fails with ErrSequenceGap.
// Nothing it keeps or hands to a replication sink aliases payload, so
// the caller may reuse the buffer once it returns.
func (s *Store) ApplyReplicated(shard int, payload []byte) (op ReplicatedOp, applied bool, err error) {
	if shard < 0 || shard >= len(s.shards) {
		return ReplicatedOp{}, false, fmt.Errorf("store: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	return s.shards[shard].applyReplicated(shard, payload)
}

func (s *shard) applyReplicated(idx int, payload []byte) (ReplicatedOp, bool, error) {
	if len(payload) > MaxRecordBytes {
		return ReplicatedOp{}, false, fmt.Errorf("store: replicated record of %d bytes exceeds limit", len(payload))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ReplicatedOp{}, false, ErrClosed
	}
	// The record is framed at the end of the open batch (nothing the
	// shard keeps aliases payload) and checked by the replay decoder, so
	// a follower never logs bytes it could not recover from; under the
	// lock, so the record's user resolves to the string the shard already
	// holds.
	off := len(s.open.buf)
	s.open.buf = appendFrame(s.open.buf, payload)
	rec, _, err := checkRecordIn(s.open.buf[off:], s.users)
	if err != nil || rec.Seq != s.nextSeq {
		s.open.buf = s.open.buf[:off]
	}
	switch {
	case err != nil:
		return ReplicatedOp{}, false, fmt.Errorf("store: replicated record: %w", err)
	case rec.Seq < s.nextSeq:
		// Already here (a reconnect replayed the tail): ack, skip. A
		// record whose number a batch still holds is skipped too: should
		// that batch fail, the next record is a gap, and the stream
		// restarts from the durable cursor.
		return ReplicatedOp{}, false, nil
	case rec.Seq > s.nextSeq:
		return ReplicatedOp{}, false, fmt.Errorf("%w: got %d, expected %d", ErrSequenceGap, rec.Seq, s.nextSeq)
	}
	rec.Bundle = nil // aliases payload; the apply decodes the logged frame
	s.open.writes = append(s.open.writes, pendingWrite{rec: rec, off: off, end: len(s.open.buf), replicated: true})
	s.open.sync = s.open.sync || !(s.opt.NoSync || s.opt.ReplicaNoSync)
	s.nextSeq++
	if err := s.awaitLocked(s.gen); err != nil {
		return ReplicatedOp{}, false, err
	}
	return ReplicatedOp{Shard: idx, Seq: rec.Seq}, true, nil
}

// InstallShardSnapshot atomically replaces a shard's entire state with a
// shipped snapshot: the snapshot is decoded and published to disk, the
// shard's log is reset, and the in-memory state and sequence cursor jump
// to the snapshot's. The shard must not be ahead of the snapshot —
// installing would silently roll back durable records.
func (s *Store) InstallShardSnapshot(shard int, data []byte) (lastSeq uint64, err error) {
	if shard < 0 || shard >= len(s.shards) {
		return 0, fmt.Errorf("store: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	return s.shards[shard].installSnapshot(data)
}

func (s *shard) installSnapshot(data []byte) (uint64, error) {
	snap, err := decodeBinarySnapshot(data)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	s.waitCommitsLocked()
	if snap.LastSeq < s.durableSeq {
		return 0, fmt.Errorf("store: snapshot at seq %d behind shard at %d", snap.LastSeq, s.durableSeq)
	}
	// Wait out any in-flight compaction so its (older) snapshot cannot
	// land after ours.
	if err := s.drainLocked(); err != nil {
		return 0, fmt.Errorf("store: drain before snapshot install: %w", err)
	}
	// Intern the shipped inline bundles; disk state is always written in
	// the content-addressed format, whatever format arrived on the wire.
	newModels := make(map[string][]modelRef, len(snap.Models))
	for id, versions := range snap.Models {
		refs := make([]modelRef, 0, len(versions))
		for _, mv := range versions {
			refs = append(refs, modelRef{Version: mv.Version, Man: s.cs.Put(mv.Bundle)})
		}
		newModels[id] = refs
	}
	if err := writeStateCAS(s.dir, s.cs, snap.LastSeq, snap.Users, newModels); err != nil {
		s.releaseModels(newModels)
		return 0, err
	}
	if err := s.resetLogLocked(); err != nil {
		return 0, err
	}
	s.users = make(map[string][]features.WindowSample, len(snap.Users))
	for id, samples := range snap.Users {
		s.users[id] = samples
	}
	s.releaseModels(s.models)
	s.models = make(map[string][]modelRef, len(newModels))
	for id, refs := range newModels {
		s.models[id] = s.trimVersions(id, refs)
	}
	s.resetHeadsLocked()
	s.nextSeq, s.durableSeq = snap.LastSeq+1, snap.LastSeq
	s.snapBaseSeq = snap.LastSeq
	s.hasSnapshot = true
	s.snapshotTime = time.Now()
	s.cs.Sweep()
	return snap.LastSeq, nil
}

// resetLogLocked deletes every sealed segment and truncates the active
// WAL — called after an installed snapshot supersedes the whole log.
func (s *shard) resetLogLocked() error {
	sealed, _, err := sealedSegments(s.dir)
	if err == nil {
		for _, p := range sealed {
			_ = os.Remove(p)
		}
	}
	s.orphanSealed = nil
	s.sealedBytes = 0
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: reset wal after snapshot install: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: rewind wal after snapshot install: %w", err)
	}
	s.walBytes = 0
	s.sinceSnapshot = 0
	return nil
}

// InstallShardDelta installs a shipped content-addressed snapshot body
// plus the chunks the follower was missing: chunk bytes land in the CAS
// first (hash-verified, held by a protect token), every referenced
// manifest is made durable, and only then is the body published as the
// shard's snapshot and the in-memory state and cursor swung to it.
// Chunks the body references but the ship omitted must already be local
// — that is the delta contract, and EnsureDurable enforces it.
func (s *Store) InstallShardDelta(shard int, body []byte, chunks map[cas.Hash][]byte) (uint64, error) {
	if shard < 0 || shard >= len(s.shards) {
		return 0, fmt.Errorf("store: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	return s.shards[shard].installDelta(body, chunks)
}

func (s *shard) installDelta(body []byte, chunks map[cas.Hash][]byte) (uint64, error) {
	decoded, err := decodeCASBody(body)
	if err != nil {
		return 0, err
	}
	token := "delta:" + s.dir
	defer func() {
		// Runs after the shard lock is released (LIFO): drop the install
		// window's protection and let the sweep reclaim anything the final
		// pin set does not cover (including all shipped chunks on failure).
		s.cs.Unprotect(token)
		s.cs.Sweep()
	}()
	for h, data := range chunks {
		if err := s.cs.PutChunk(token, h, data); err != nil {
			return 0, fmt.Errorf("store: delta chunk install: %w", err)
		}
	}
	for id, m := range decoded.Users {
		if err := s.cs.EnsureDurable(token, m); err != nil {
			return 0, fmt.Errorf("store: delta windows for %q: %w", id, err)
		}
	}
	for id, versions := range decoded.Models {
		for _, ref := range versions {
			if err := s.cs.EnsureDurable(token, ref.Man); err != nil {
				return 0, fmt.Errorf("store: delta model %q v%d: %w", id, ref.Version, err)
			}
		}
	}
	// Hydrate window data before taking the shard lock; the protect token
	// keeps the chunks alive.
	newUsers := make(map[string][]features.WindowSample, len(decoded.Users))
	for id, m := range decoded.Users {
		blob, err := s.cs.Get(m)
		if err != nil {
			return 0, fmt.Errorf("store: delta windows for %q: %w", id, err)
		}
		samples, err := decodeWindowBlob(blob)
		if err != nil {
			return 0, fmt.Errorf("store: delta windows for %q: %w", id, err)
		}
		newUsers[id] = samples
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	s.waitCommitsLocked()
	if decoded.LastSeq < s.durableSeq {
		return 0, fmt.Errorf("store: delta at seq %d behind shard at %d", decoded.LastSeq, s.durableSeq)
	}
	if err := s.drainLocked(); err != nil {
		return 0, fmt.Errorf("store: drain before delta install: %w", err)
	}
	if err := writeFileDurable(s.dir, casSnapshotFile, body); err != nil {
		return 0, err
	}
	s.cs.SetPins(s.dir, decoded.hashes())
	if err := s.resetLogLocked(); err != nil {
		return 0, err
	}
	s.users = newUsers
	s.retainModels(decoded.Models)
	s.releaseModels(s.models)
	s.models = make(map[string][]modelRef, len(decoded.Models))
	for id, refs := range decoded.Models {
		s.models[id] = s.trimVersions(id, refs)
	}
	s.resetHeadsLocked()
	s.nextSeq, s.durableSeq = decoded.LastSeq+1, decoded.LastSeq
	s.snapBaseSeq = decoded.LastSeq
	s.hasSnapshot = true
	s.snapshotTime = time.Now()
	return decoded.LastSeq, nil
}
