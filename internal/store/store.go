// Package store is the Authentication Server's durable state (Section
// IV-A3): the anonymized population windows and the per-user trained
// models must survive a server restart, or every user would have to
// re-enroll — a two-day recollection campaign in the paper's deployment.
//
// The design is a write-ahead log with snapshot compaction, partitioned
// into shards for throughput:
//
//   - users are assigned to one of N shards by FNV-1a hash of their
//     anonymized identifier; each shard has its own directory, WAL,
//     snapshot, mutex and sequence counter, so enrolls on different
//     shards proceed fully in parallel (shard.go);
//   - every mutation (enroll, replace/retrain upload, model publication)
//     is appended to its shard's append-only, CRC32-checksummed log
//     before it is applied in memory;
//   - feature windows are stored in a fixed-width binary encoding
//     (codec.go) behind a format byte;
//   - compaction runs on a per-shard background worker from a
//     copy-on-write view, so no enroll ever blocks on a full-state
//     rewrite; sealed WAL segments are deleted only after the covering
//     snapshot has been atomically published.
//
// Recovery tolerates a torn final record — the half-written tail of a
// crashed append — by truncating the log at the last intact record and
// continuing. Corruption is reported, never panicked on. The store reads
// only the formats it writes: a directory holding a snapshot file or an
// intact WAL record from another format generation is refused with
// ErrUnsupportedFormat, untouched, rather than opened around. Every
// store, one shard or many, keeps shard i in shard-%04d/, and the shard
// count is pinned in a meta file at creation so later opens route users
// identically.
//
// The store also acts as the versioned model registry: each published
// bundle gets the user's next monotonic version number and can be fetched
// by version or as the latest, reusing the JSON model serialization of
// internal/ml. Options.KeepModelVersions bounds each user's history.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"smarteryou/internal/cas"
	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
)

// Errors returned by the store API.
var (
	// ErrClosed indicates an operation on a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrNoModel indicates the registry holds no model for the user (or
	// not the requested version).
	ErrNoModel = errors.New("store: no such model")
	// ErrUnsupportedFormat indicates the directory holds state in a format
	// this build does not read: a snapshot.json or snapshot.bin file, a
	// meta.json of another format, a WAL, sealed segment or snapshot.cas
	// at the top level instead of in a shard directory, or a WAL record
	// that is intact (length and checksum hold) but carries an unknown
	// payload format byte. The error names the offending file and
	// Open has truncated and removed nothing. Such a directory was written
	// by another build and must be rewritten by one that reads its format
	// (README, "Upgrading a data directory").
	ErrUnsupportedFormat = errors.New("store: unsupported on-disk format")
)

// Options tunes a store.
type Options struct {
	// Shards partitions the store into this many independent
	// WAL+snapshot shards (default 1). The count is fixed at creation:
	// reopening an existing store uses the shard count recorded on disk.
	Shards int
	// SnapshotEvery compacts a shard's WAL into a snapshot after this
	// many appended records (default 256; negative disables automatic
	// compaction — Snapshot can still be called explicitly). Compaction
	// runs on a background worker and never blocks an enroll.
	SnapshotEvery int
	// KeepModelVersions bounds each user's registry history to the most
	// recent K versions (0 keeps everything). Older versions are dropped
	// at publish time and garbage-collected from snapshots at compaction.
	KeepModelVersions int
	// NoSync skips the fsync after each append. Throughput over
	// durability: a crash may lose recent acknowledged writes, but the log
	// stays recoverable. Intended for tests and bulk loads. It does not
	// order compaction's writes: chunk files are not fsynced, but the
	// snapshot that names them is, and then the sealed segments it covers
	// are deleted — so after a power loss the snapshot may name chunks
	// that never reached the disk, with no segment left to replay.
	NoSync bool
	// ReplicaNoSync skips the per-record fsync in ApplyReplicated only —
	// local mutations still sync. Safe whenever every replicated record's
	// source (the shard's owner, which synced before acknowledging)
	// retains it and replays by sequence number on reconnect: a crash
	// here loses at most an unsynced tail that the next replication
	// session re-sends. Anything that turns this replica into an owner
	// (cluster handoff, follower promotion) must call SyncShard first to
	// restore the owner's durability guarantee.
	ReplicaNoSync bool
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 256
	}
	return o
}

// ModelVersion is one registered model: a monotonic per-user version
// number and the bundle's JSON encoding (the exact bytes the phone
// downloads).
type ModelVersion struct {
	Version int
	Bundle  json.RawMessage
}

// Recovery describes what Open found in the logs (summed across shards).
type Recovery struct {
	// Replayed counts log records applied on top of the snapshots.
	Replayed int
	// SkippedBySnapshot counts log records already contained in a
	// snapshot (a crash interrupted the log reset after compaction).
	SkippedBySnapshot int
	// TruncatedBytes is how much torn/corrupt log tail was discarded.
	TruncatedBytes int64
}

// ShardStats summarizes one shard for monitoring.
type ShardStats struct {
	// Users and Windows count the shard's stored population.
	Users   int
	Windows int
	// WALBytes is the shard's live log size (active + sealed segments).
	WALBytes int64
	// Records is the shard's last used sequence number — the total
	// mutations it has logged.
	Records uint64
	// LastSeq is the shard's last durable sequence number: the cursor a
	// replication follower acknowledges. Numerically equal to Records
	// today (sequences start at 1 and never skip), but exported
	// separately because it is a protocol cursor, not a size statistic.
	LastSeq uint64
}

// Stats summarizes the store for monitoring.
type Stats struct {
	Users    int
	Windows  int
	WALBytes int64
	// LastSeq is the total number of records logged across all shards
	// (each shard numbers its own log independently).
	LastSeq       uint64
	HasSnapshot   bool
	SnapshotAge   time.Duration
	ModelVersions map[string]int
	Recovery      Recovery
	// Shards reports per-shard record counts; its length is the store's
	// shard count.
	Shards []ShardStats
	// CAS reports the content-addressed chunk store's occupancy (shared
	// across shards).
	CAS cas.Stats
}

// metaFile pins the shard count (and format generation) of a store
// directory so every open routes users to the same shard. It is written
// once, when the store is created.
const (
	metaFile   = "meta.json"
	metaFormat = 1
)

type storeMeta struct {
	Format int `json:"format"`
	Shards int `json:"shards"`
}

// Store is the durable population store and model registry. All methods
// are safe for concurrent use.
type Store struct {
	dir    string
	opt    Options
	shards []*shard
	// cs is the store-wide content-addressed chunk store (internal/cas):
	// model bundles and snapshot window blobs are chunked into it, shared
	// across versions and shards, and garbage-collected by sweep.
	cs *cas.Store

	// replMu guards the replication sink registry (replica.go).
	replMu     sync.RWMutex
	replSinks  map[uint64]ReplSink
	replNextID uint64
}

// Open creates or recovers a store rooted at dir: every shard loads its
// snapshot (if any), replays its WAL segments on top, truncates any torn
// tail, and leaves its log open for appends. Shard i lives in
// dir/shard-%04d, whatever the count. A directory in a format this build
// does not read fails with ErrUnsupportedFormat, untouched.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := refuseUnsupportedFiles(dir); err != nil {
		return nil, err
	}
	meta, hasMeta, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if hasMeta {
		// The recorded count wins, whatever the caller asked for: rehashing
		// users across a different count would break replace semantics.
		opt.Shards = meta.Shards
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create directory: %w", err)
	}

	st := &Store{dir: dir, opt: opt}
	cs, err := cas.Open(filepath.Join(dir, casDirName), opt.NoSync)
	if err != nil {
		return nil, err
	}
	st.cs = cs
	if !hasMeta {
		data, err := json.Marshal(storeMeta{Format: metaFormat, Shards: opt.Shards})
		if err != nil {
			return nil, fmt.Errorf("store: encode meta: %w", err)
		}
		if err := writeFileDurable(dir, metaFile, data); err != nil {
			return nil, err
		}
	}

	for i := 0; i < opt.Shards; i++ {
		sh, err := openShard(filepath.Join(dir, fmt.Sprintf("shard-%04d", i)), opt, cs)
		if err != nil {
			for _, prev := range st.shards {
				_ = prev.close()
			}
			return nil, fmt.Errorf("store: open shard %d: %w", i, err)
		}
		// Wired before the store escapes this function, so no append can
		// race the assignment.
		sh.idx = i
		sh.notify = st.notifyRepl
		st.shards = append(st.shards, sh)
	}
	return st, nil
}

// readMeta reads dir's meta.json, reporting ok=false when there is none
// (a new store). A meta.json of another format is refused.
func readMeta(dir string) (m storeMeta, ok bool, err error) {
	path := filepath.Join(dir, metaFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return storeMeta{}, false, nil
	}
	if err != nil {
		return storeMeta{}, false, fmt.Errorf("store: read meta: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return storeMeta{}, false, fmt.Errorf("store: decode meta: %w", err)
	}
	if m.Format != metaFormat {
		return storeMeta{}, false, fmt.Errorf("%w: %s declares format %d", ErrUnsupportedFormat, path, m.Format)
	}
	if m.Shards < 1 {
		return storeMeta{}, false, fmt.Errorf("store: meta declares %d shards", m.Shards)
	}
	return m, true, nil
}

// ShardIndex routes a user id to a shard by FNV-1a hash. It is exported
// because it is the cluster's stable routing key: clients and the
// shard-ownership layer compute it on the (already anonymized) user id to
// decide which node owns the write, and it must agree byte-for-byte with
// the store's own placement.
func ShardIndex(user string, count int) int {
	if count <= 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(user))
	return int(h.Sum64() % uint64(count))
}

func shardIndex(user string, count int) int { return ShardIndex(user, count) }

func (s *Store) shardFor(user string) *shard {
	return s.shards[shardIndex(user, len(s.shards))]
}

// Enroll durably appends feature windows for a user; replace first
// discards the user's stored windows (the retraining upload). The user
// identifier should already be anonymized by the caller — the store
// persists it verbatim.
func (s *Store) Enroll(user string, samples []features.WindowSample, replace bool) error {
	if user == "" {
		return fmt.Errorf("store: enroll: empty user id")
	}
	return s.shardFor(user).enroll(user, samples, replace)
}

// PublishModel registers a trained bundle under the user's next version
// number and returns that version.
func (s *Store) PublishModel(user string, bundle *core.ModelBundle) (int, error) {
	blob, err := bundle.Marshal()
	if err != nil {
		return 0, fmt.Errorf("store: encode model bundle: %w", err)
	}
	return s.PublishModelBlob(user, blob)
}

// PublishModelBlob is PublishModel for a bundle its caller has already
// encoded with ModelBundle.Marshal: blob is stored as given, and is what
// LatestModelBlob returns for that version.
func (s *Store) PublishModelBlob(user string, blob []byte) (int, error) {
	if user == "" {
		return 0, fmt.Errorf("store: publish: empty user id")
	}
	return s.shardFor(user).publishModel(user, blob)
}

// Reserved registry identifiers for server-internal state. They start
// with a NUL byte, which no anonymized user pseudonym ("anon-..." hex)
// can, so they never collide with a user's model history; they are
// filtered out of ModelVersions and Stats so internal state does not
// masquerade as a user.
const (
	// detectorKey holds the user-agnostic context detector.
	detectorKey = "\x00context-detector"
	// driftStateKey holds the retrain monitor's serialized per-user drift
	// state — a rolling checkpoint, retained at only its latest version.
	driftStateKey = "\x00drift-state"

	// DetectorKey and DriftStateKey are the exported names of the reserved
	// identifiers above. A cluster routes them like any other key — they
	// hash to exactly one shard, so only that shard's owner may publish
	// them — which is why the owning layer needs their names.
	DetectorKey   = detectorKey
	DriftStateKey = driftStateKey
)

// IsReservedKey reports whether a registry identifier is server-internal
// (NUL-prefixed) rather than a user pseudonym.
func IsReservedKey(id string) bool {
	return len(id) > 0 && id[0] == 0
}

// PublishDetector durably stores the user-agnostic context detector in
// the registry, so a restarted server can serve it without retraining
// from a regenerated corpus.
func (s *Store) PublishDetector(det *ctxdetect.Detector) error {
	if det == nil {
		return fmt.Errorf("store: publish: nil detector")
	}
	blob, err := json.Marshal(det)
	if err != nil {
		return fmt.Errorf("store: encode detector: %w", err)
	}
	if _, err := s.shardFor(detectorKey).publishModel(detectorKey, blob); err != nil {
		return err
	}
	return nil
}

// LatestDetector loads the most recently published context detector.
// Returns ErrNoModel when no detector has been published.
func (s *Store) LatestDetector() (*ctxdetect.Detector, error) {
	blob, _, _, err := s.shardFor(detectorKey).modelBlob(detectorKey, 0)
	if errors.Is(err, ErrNoModel) {
		return nil, fmt.Errorf("%w: no published context detector", ErrNoModel)
	}
	if err != nil {
		return nil, err
	}
	var det ctxdetect.Detector
	if err := json.Unmarshal(blob, &det); err != nil {
		return nil, fmt.Errorf("store: decode detector: %w", err)
	}
	return &det, nil
}

// PublishDriftState durably checkpoints the retrain monitor's serialized
// drift state (internal/retrain codec) under its reserved registry key.
// It rides the shard's WAL like any publish — replicated to followers,
// compacted into snapshots — but only the latest checkpoint is retained:
// the blob is a rolling snapshot of the whole monitor, so history would
// only bloat the registry.
func (s *Store) PublishDriftState(blob []byte) error {
	if len(blob) == 0 {
		return fmt.Errorf("store: publish: empty drift state")
	}
	_, err := s.shardFor(driftStateKey).publishModel(driftStateKey, blob)
	return err
}

// LatestDriftState loads the most recent drift-state checkpoint. Returns
// ErrNoModel when none has been published.
func (s *Store) LatestDriftState() ([]byte, error) {
	blob, _, _, err := s.shardFor(driftStateKey).modelBlob(driftStateKey, 0)
	if errors.Is(err, ErrNoModel) {
		return nil, fmt.Errorf("%w: no published drift state", ErrNoModel)
	}
	if err != nil {
		return nil, err
	}
	return blob, nil
}

// LatestModel fetches the most recently published model for the user.
func (s *Store) LatestModel(user string) (*core.ModelBundle, int, error) {
	blob, _, version, err := s.shardFor(user).modelBlob(user, 0)
	if errors.Is(err, ErrNoModel) {
		return nil, 0, fmt.Errorf("%w for user %q", ErrNoModel, user)
	}
	if err != nil {
		return nil, 0, err
	}
	bundle, err := core.UnmarshalModelBundle(blob)
	if err != nil {
		return nil, 0, err
	}
	return bundle, version, nil
}

// LatestModelHash reports the version and content hash of the user's
// latest published model without reading it, and without the shard lock
// (head.go): an atomic read and a map lookup, no CAS access, no
// allocation, so a serving layer can validate a decoded bundle it caches
// and answer a conditional fetch while a write holds the shard.
// ErrNoModel is returned bare.
func (s *Store) LatestModelHash(user string) (int, cas.Hash, error) {
	return s.shardFor(user).head(user)
}

// LatestModelBlob fetches the latest published bundle for a registry key
// as raw bytes plus its content hash and version. The transport layer
// serves fetches from it so the hash can ride the response for
// client-side conditional caching.
func (s *Store) LatestModelBlob(user string) ([]byte, cas.Hash, int, error) {
	return s.shardFor(user).modelBlob(user, 0)
}

// ModelBlobAt is LatestModelBlob for a specific version (0: the latest).
func (s *Store) ModelBlobAt(user string, version int) ([]byte, cas.Hash, int, error) {
	return s.shardFor(user).modelBlob(user, version)
}

// CASHashes lists every chunk hash the store currently holds. The
// replication hello uses it so a leader can skip shipping chunks a
// lagging follower already has.
func (s *Store) CASHashes() []cas.Hash { return s.cs.Hashes() }

// ScrubCAS re-hashes every chunk file and cross-checks it against the
// live reference set; with remove set, unreferenced chunks are deleted.
// Corrupt or missing live chunks are reported, never removed.
func (s *Store) ScrubCAS(remove bool) (cas.ScrubReport, error) {
	return s.cs.Scrub(remove)
}

// ModelVersions returns the latest published version per user.
func (s *Store) ModelVersions() map[string]int {
	out := make(map[string]int)
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, vs := range sh.models {
			if IsReservedKey(id) {
				continue
			}
			if len(vs) > 0 {
				out[id] = vs[len(vs)-1].Version
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// UserWindows returns one user's stored windows without copying them: a
// frozen view the caller may read without a lock and must not write. The
// store only ever appends past a handed-out slice's length or replaces a
// user's entry wholesale — the rule the compaction worker's copy-on-write
// view already depends on (shard.go).
func (s *Store) UserWindows(user string) []features.WindowSample {
	sh := s.shardFor(user)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return frozen(sh.users[user])
}

// frozen caps a handed-out view at its length: the store appends into
// the spare capacity past it, so an append by the caller must copy.
func frozen(w []features.WindowSample) []features.WindowSample {
	return w[:len(w):len(w)]
}

// PopulationView returns every user's stored windows by (anonymized)
// identifier. The map is the caller's; its slices are frozen views like
// UserWindows', so no window is copied however large the population.
func (s *Store) PopulationView() map[string][]features.WindowSample {
	out := make(map[string][]features.WindowSample)
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, samples := range sh.users {
			out[id] = frozen(samples)
		}
		sh.mu.Unlock()
	}
	return out
}

// Population is PopulationView with every window copied, for callers
// that want to own (or mutate) what they get back.
func (s *Store) Population() map[string][]features.WindowSample {
	out := s.PopulationView()
	for id, samples := range out {
		out[id] = append([]features.WindowSample(nil), samples...)
	}
	return out
}

// Stats reports the store's size and persistence state, aggregated over
// shards, plus the per-shard breakdown.
func (s *Store) Stats() Stats {
	st := Stats{
		ModelVersions: make(map[string]int),
		Shards:        make([]ShardStats, 0, len(s.shards)),
	}
	for _, sh := range s.shards {
		shs := sh.stats()
		st.Shards = append(st.Shards, shs)
		st.Users += shs.Users
		st.Windows += shs.Windows
		st.WALBytes += shs.WALBytes
		st.LastSeq += shs.Records

		sh.mu.Lock()
		st.Recovery.Replayed += sh.recovery.Replayed
		st.Recovery.SkippedBySnapshot += sh.recovery.SkippedBySnapshot
		st.Recovery.TruncatedBytes += sh.recovery.TruncatedBytes
		for id, vs := range sh.models {
			if IsReservedKey(id) {
				continue
			}
			if len(vs) > 0 {
				st.ModelVersions[id] = vs[len(vs)-1].Version
			}
		}
		if sh.hasSnapshot {
			st.HasSnapshot = true
			if age := time.Since(sh.snapshotTime); age > st.SnapshotAge {
				st.SnapshotAge = age
			}
		}
		sh.mu.Unlock()
	}
	st.CAS = s.cs.Stats()
	return st
}

// Snapshot forces a compaction of every shard — the full state is written
// to the shard snapshots (atomically), superseded WAL segments are
// removed — and waits for the background workers to finish.
func (s *Store) Snapshot() error {
	for _, sh := range s.shards {
		if err := sh.snapshotSync(); err != nil {
			return err
		}
	}
	return nil
}

// Close drains the compaction workers, then flushes and closes the logs.
// Further mutations fail with ErrClosed.
func (s *Store) Close() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
