// Content-addressed shard state. A snapshot that inlined every window
// and model bundle would rewrite every byte of the shard on each
// compaction even when almost nothing changed. snapshot.cas instead
// stores manifests — content-addressed chunk lists (internal/cas) — for
// each user's window blob and each registered model version; the bulk
// bytes live once per chunk in the store-wide chunk directory.
// Compacting a mostly-unchanged shard then writes only the changed
// chunks plus a small manifest file: incremental compaction falls out of
// content addressing. The same body encoding ships over the wire as a
// replication delta, so a follower that already holds most chunks
// receives only the missing ones.
//
// snapshot.cas layout (also the delta-frame body):
//
//	[0]     format byte casFormatV2
//	[1:9]   last sequence number, uint64 LE
//	uvarint user count; per user (sorted by id for deterministic,
//	        dedup-friendly bytes): id, manifest of the user's
//	        binary-encoded window blob
//	uvarint model-user count; per id (sorted): id, uvarint version
//	        count, per version: uvarint version, manifest
//	[last 4] CRC32 (IEEE) of everything before it, big-endian
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"smarteryou/internal/binio"
	"smarteryou/internal/cas"
	"smarteryou/internal/features"
)

const (
	// casSnapshotFile is the content-addressed shard snapshot: manifests
	// inline, chunk bytes in the store-wide cas directory.
	casSnapshotFile = "snapshot.cas"
	// casDirName is the store-root chunk directory, shared by all shards
	// so chunks dedup across the whole store.
	casDirName = "cas"
	// casFormatV2 tags the content-addressed snapshot body; distinct from
	// binFormatV1 so the two can never be mistaken for each other.
	casFormatV2 = 0x02
)

// modelRef is one registered model version as a pointer into the CAS:
// the monotonic version number plus the bundle blob's manifest. This is
// what the registry holds in memory instead of inline bundle bytes.
type modelRef struct {
	Version int
	Man     cas.Manifest
}

// casBody is a decoded snapshot.cas: the shard's full state with every
// payload indirected through the CAS.
type casBody struct {
	LastSeq uint64
	Users   map[string]cas.Manifest
	Models  map[string][]modelRef
}

// hashes returns every chunk hash the body references, deduplicated —
// the pin set for the snapshot that carries it.
func (b casBody) hashes() []cas.Hash {
	seen := make(map[cas.Hash]struct{})
	add := func(m cas.Manifest) {
		for _, c := range m.Chunks {
			seen[c.Hash] = struct{}{}
		}
	}
	for _, m := range b.Users {
		add(m)
	}
	for _, vs := range b.Models {
		for _, mv := range vs {
			add(mv.Man)
		}
	}
	out := make([]cas.Hash, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	return out
}

// encodeCASBody serializes a body deterministically: map keys are sorted,
// so the same state always yields the same bytes and two consecutive
// snapshots of similar state produce near-identical chunk streams.
func encodeCASBody(b casBody) []byte {
	size := 9 + 8
	for id, m := range b.Users {
		size += 2*binary.MaxVarintLen64 + len(id) + cas.EncodedManifestLen(m)
	}
	for id, vs := range b.Models {
		size += 2*binary.MaxVarintLen64 + len(id)
		for _, mv := range vs {
			size += binary.MaxVarintLen64 + cas.EncodedManifestLen(mv.Man)
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, casFormatV2)
	buf = binio.AppendU64(buf, b.LastSeq)

	userIDs := make([]string, 0, len(b.Users))
	for id := range b.Users {
		userIDs = append(userIDs, id)
	}
	sort.Strings(userIDs)
	buf = binio.AppendUvarint(buf, uint64(len(userIDs)))
	for _, id := range userIDs {
		buf = binio.AppendString(buf, id)
		buf = cas.AppendManifest(buf, b.Users[id])
	}

	modelIDs := make([]string, 0, len(b.Models))
	for id := range b.Models {
		modelIDs = append(modelIDs, id)
	}
	sort.Strings(modelIDs)
	buf = binio.AppendUvarint(buf, uint64(len(modelIDs)))
	for _, id := range modelIDs {
		buf = binio.AppendString(buf, id)
		vs := b.Models[id]
		buf = binio.AppendUvarint(buf, uint64(len(vs)))
		for _, mv := range vs {
			buf = binio.AppendUvarint(buf, uint64(mv.Version))
			buf = cas.AppendManifest(buf, mv.Man)
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeCASBody parses and checksums a snapshot.cas body (disk file or
// replication delta alike).
func decodeCASBody(data []byte) (casBody, error) {
	if len(data) < 13 {
		return casBody{}, fmt.Errorf("store: cas snapshot too short (%d bytes)", len(data))
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc := crc32.ChecksumIEEE(body); crc != sum {
		return casBody{}, fmt.Errorf("store: cas snapshot checksum mismatch")
	}
	r := binio.NewReader(body)
	if fb := r.Byte(); fb != casFormatV2 && r.Err() == nil {
		r.Fail("unsupported cas snapshot format %d", fb)
	}
	b := casBody{
		Users:  make(map[string]cas.Manifest),
		Models: make(map[string][]modelRef),
	}
	b.LastSeq = r.U64()
	nUsers := r.Uvarint()
	if nUsers > uint64(r.Remaining()) {
		r.Fail("user count %d exceeds %d remaining bytes", nUsers, r.Remaining())
	}
	for i := uint64(0); i < nUsers && r.Err() == nil; i++ {
		id := r.Str()
		m := cas.ReadManifest(r)
		if r.Err() == nil {
			b.Users[id] = m
		}
	}
	nModels := r.Uvarint()
	if nModels > uint64(r.Remaining()) {
		r.Fail("model count %d exceeds %d remaining bytes", nModels, r.Remaining())
	}
	for i := uint64(0); i < nModels && r.Err() == nil; i++ {
		id := r.Str()
		nv := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if nv > uint64(r.Remaining())+1 {
			r.Fail("version count %d exceeds %d remaining bytes", nv, r.Remaining())
			break
		}
		versions := make([]modelRef, 0, nv)
		for j := uint64(0); j < nv && r.Err() == nil; j++ {
			v := int(r.Uvarint())
			m := cas.ReadManifest(r)
			versions = append(versions, modelRef{Version: v, Man: m})
		}
		if r.Err() == nil {
			b.Models[id] = versions
		}
	}
	if err := r.Err(); err != nil {
		return casBody{}, fmt.Errorf("store: decode cas snapshot: %w", err)
	}
	if r.Remaining() != 0 {
		return casBody{}, fmt.Errorf("store: cas snapshot: %d trailing bytes", r.Remaining())
	}
	return b, nil
}

// encodeWindowBlob serializes one user's windows as the blob that gets
// chunked — the same fixed-width encoding the WAL uses, so identical
// window sets produce identical chunks on every node.
func encodeWindowBlob(samples []features.WindowSample) []byte {
	buf := make([]byte, 0, features.EncodedSampleListSize(samples)+binary.MaxVarintLen64)
	return features.AppendSampleListBinary(buf, samples)
}

func decodeWindowBlob(blob []byte) ([]features.WindowSample, error) {
	r := binio.NewReader(blob)
	samples := features.ReadSampleListBinary(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("store: decode window blob: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("store: window blob: %d trailing bytes", r.Remaining())
	}
	return samples, nil
}

// writeStateCAS publishes a shard's state as snapshot.cas: every chunk
// is made durable (new chunks written, unchanged chunks reused in place —
// the incremental part), the manifest body is atomically renamed into
// place, and the shard's pin set is moved to the new snapshot's chunks.
// The publish-token protection covers the gap between chunk flush and
// pin update, so a concurrent sweep for another shard cannot reclaim the
// new chunks.
func writeStateCAS(dir string, cs *cas.Store, lastSeq uint64, users map[string][]features.WindowSample, models map[string][]modelRef) error {
	token := "publish:" + dir
	defer cs.Unprotect(token)

	body := casBody{
		LastSeq: lastSeq,
		Users:   make(map[string]cas.Manifest, len(users)),
		Models:  models,
	}
	for id, samples := range users {
		m, err := cs.WriteBlob(token, encodeWindowBlob(samples))
		if err != nil {
			return fmt.Errorf("store: write window blob for %q: %w", id, err)
		}
		body.Users[id] = m
	}
	for id, vs := range models {
		for _, mv := range vs {
			if err := cs.EnsureDurable(token, mv.Man); err != nil {
				return fmt.Errorf("store: flush model chunks for %q v%d: %w", id, mv.Version, err)
			}
		}
	}
	if err := writeFileDurable(dir, casSnapshotFile, encodeCASBody(body)); err != nil {
		return err
	}
	cs.SetPins(dir, body.hashes())
	return nil
}

// shardState is a shard's in-memory state as recovered from disk.
type shardState struct {
	lastSeq uint64
	users   map[string][]features.WindowSample
	models  map[string][]modelRef
}

// loadShardState recovers a shard's snapshot.cas, reporting ok=false when
// the shard has never compacted. Registry manifests are retained and the
// snapshot's chunks pinned, so reads and sweeps are safe from the first
// moment. A stale temporary from an interrupted compaction is removed.
func loadShardState(dir string, cs *cas.Store) (st shardState, mtime time.Time, ok bool, err error) {
	_ = os.Remove(filepath.Join(dir, casSnapshotFile+tmpSuffix))

	path := filepath.Join(dir, casSnapshotFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return shardState{}, time.Time{}, false, nil
	}
	if err != nil {
		return shardState{}, time.Time{}, false, fmt.Errorf("store: read cas snapshot: %w", err)
	}
	body, err := decodeCASBody(data)
	if err != nil {
		return shardState{}, time.Time{}, false, err
	}
	st = shardState{
		lastSeq: body.LastSeq,
		users:   make(map[string][]features.WindowSample, len(body.Users)),
		models:  make(map[string][]modelRef, len(body.Models)),
	}
	for id, m := range body.Users {
		blob, err := cs.Get(m)
		if err != nil {
			return shardState{}, time.Time{}, false, fmt.Errorf("store: load windows for %q: %w", id, err)
		}
		samples, err := decodeWindowBlob(blob)
		if err != nil {
			return shardState{}, time.Time{}, false, err
		}
		st.users[id] = samples
	}
	for id, vs := range body.Models {
		for _, mv := range vs {
			if err := cs.Retain(mv.Man); err != nil {
				return shardState{}, time.Time{}, false, fmt.Errorf("store: load model %q v%d: %w", id, mv.Version, err)
			}
		}
		st.models[id] = vs
	}
	cs.SetPins(dir, body.hashes())
	if info, statErr := os.Stat(path); statErr == nil {
		mtime = info.ModTime()
	}
	return st, mtime, true, nil
}
