package cas

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// chunkSuffix names chunk files: <dir>/<hex sha256>.chunk. The name is
// the content address, so a file whose bytes do not hash to its name is
// corrupt by definition — that is what Scrub verifies.
const chunkSuffix = ".chunk"

const tmpSuffix = ".tmp"

// flushTestHook, when set, is called by every flush that has chunk files
// to write, after it collected them and before it writes them, without
// the store lock. Tests use it to hold a flush in flight.
var flushTestHook func()

// entry tracks one chunk's lifetime. data is the in-memory copy, kept
// until the chunk is made durable (then dropped — disk is the source of
// truth); refs counts live registry manifests; onDisk mirrors the chunk
// file's existence.
type entry struct {
	data   []byte
	size   int
	refs   int
	onDisk bool
}

// Stats summarizes a chunk store.
type Stats struct {
	// MemChunks/MemBytes count chunks whose data is held in memory
	// (referenced but not yet flushed by a snapshot).
	MemChunks int
	MemBytes  int64
	// DiskChunks/DiskBytes count durable chunk files.
	DiskChunks int
	DiskBytes  int64
	// Pinned counts distinct chunks pinned by published snapshots.
	Pinned int
}

// ScrubReport is the result of a Store.Scrub pass.
type ScrubReport struct {
	// DiskChunks/DiskBytes is the full on-disk inventory.
	DiskChunks int
	DiskBytes  int64
	// Live counts disk chunks that are referenced or pinned.
	Live int
	// Orphans counts disk chunks with no reference and no pin — debris
	// from a torn sweep or crashed publish; harmless, reclaimable.
	Orphans     int
	OrphanBytes int64
	// Removed counts orphans deleted (only when scrubbing with remove).
	Removed      int
	RemovedBytes int64
	// Corrupt lists disk chunks whose bytes do not hash to their name.
	Corrupt []Hash
	// Missing lists pinned or referenced chunks with neither a disk file
	// nor an in-memory copy — data loss, the one state scrub cannot fix.
	Missing []Hash
}

// Clean reports whether the scrub found no corruption or loss.
func (r ScrubReport) Clean() bool { return len(r.Corrupt) == 0 && len(r.Missing) == 0 }

// Store is a refcounted, disk-backed chunk store shared by every shard of
// one population store. All methods are safe for concurrent use.
type Store struct {
	noSync bool
	// prefix is the chunk directory with a trailing separator: a chunk's
	// path is prefix, its hex hash and chunkSuffix.
	prefix string
	// tmpSeq numbers flushes' temporary files: two flushes (two shards
	// compacting) may write the same chunk at once.
	tmpSeq atomic.Uint64

	mu     sync.Mutex
	chunks map[Hash]*entry
	// pins: owner (shard directory) -> chunks its published snapshot
	// references. Replaced wholesale when the owner publishes a snapshot.
	pins map[string]map[Hash]struct{}
	// protect: in-flight publish token -> chunks written but not yet
	// covered by a pin. Keeps a concurrent sweep from deleting chunks
	// between their flush and the snapshot rename that pins them.
	protect map[string]map[Hash]struct{}
}

// Open creates or reopens the chunk directory and inventories the chunks
// already on disk. noSync skips per-file fsyncs (test/bulk-load speed;
// matches the store's Options.NoSync).
func Open(dir string, noSync bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: create chunk directory: %w", err)
	}
	prefix := filepath.Clean(dir)
	if !strings.HasSuffix(prefix, string(filepath.Separator)) {
		prefix += string(filepath.Separator)
	}
	s := &Store{
		noSync:  noSync,
		prefix:  prefix,
		chunks:  make(map[Hash]*entry),
		pins:    make(map[string]map[Hash]struct{}),
		protect: make(map[string]map[Hash]struct{}),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cas: list chunk directory: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			_ = os.Remove(filepath.Join(dir, name)) // torn write; content unknown
			continue
		}
		h, ok := parseChunkName(name)
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		s.chunks[h] = &entry{size: int(info.Size()), onDisk: true}
	}
	return s, nil
}

func parseChunkName(name string) (Hash, bool) {
	if !strings.HasSuffix(name, chunkSuffix) {
		return Hash{}, false
	}
	h, err := ParseHex(strings.TrimSuffix(name, chunkSuffix))
	if err != nil {
		return Hash{}, false
	}
	return h, true
}

// chunkPath is h's chunk file, built in one allocation.
func (s *Store) chunkPath(h Hash) string {
	var name [2 * HashSize]byte
	hex.Encode(name[:], h[:])
	var b strings.Builder
	b.Grow(len(s.prefix) + len(name) + len(chunkSuffix))
	b.WriteString(s.prefix)
	b.Write(name[:])
	b.WriteString(chunkSuffix)
	return b.String()
}

// Put interns a blob: chunks it, adds one reference per chunk occurrence,
// and keeps the data in memory until a snapshot flushes it. It never
// touches disk, so it is safe on the WAL-apply path.
func (s *Store) Put(blob []byte) Manifest {
	m, parts := ManifestOf(blob)
	s.mu.Lock()
	for i, c := range m.Chunks {
		e := s.chunks[c.Hash]
		if e == nil {
			e = &entry{size: c.Size}
			s.chunks[c.Hash] = e
		}
		if e.data == nil && !e.onDisk {
			e.data = append([]byte(nil), parts[i]...)
		}
		e.refs++
	}
	s.mu.Unlock()
	return m
}

// Retain adds one reference per chunk of an existing manifest. It fails
// if any chunk is unknown — a registry entry pointing at data the store
// does not hold is corruption, caught here at load time rather than at
// first read.
func (s *Store) Retain(m Manifest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range m.Chunks {
		if s.chunks[c.Hash] == nil {
			return fmt.Errorf("cas: retain: missing chunk %s", c.Hash.Hex())
		}
	}
	for _, c := range m.Chunks {
		s.chunks[c.Hash].refs++
	}
	return nil
}

// Release drops one reference per chunk of a manifest (the keep-last-K
// trim path). Memory-only chunks that reach zero references are freed
// immediately; durable chunks stay until Sweep decides they are neither
// referenced nor pinned.
func (s *Store) Release(m Manifest) {
	s.mu.Lock()
	for _, c := range m.Chunks {
		e := s.chunks[c.Hash]
		if e == nil {
			continue
		}
		if e.refs > 0 {
			e.refs--
		}
		if e.refs == 0 && !e.onDisk && !s.heldLocked(c.Hash) {
			delete(s.chunks, c.Hash)
		}
	}
	s.mu.Unlock()
}

// heldLocked reports whether any pin or publish protection covers h.
func (s *Store) heldLocked(h Hash) bool {
	for _, set := range s.pins {
		if _, ok := set[h]; ok {
			return true
		}
	}
	for _, set := range s.protect {
		if _, ok := set[h]; ok {
			return true
		}
	}
	return false
}

// Get reassembles a blob from its manifest (memory first, disk
// read-through after a flush) and verifies the whole-blob hash.
func (s *Store) Get(m Manifest) ([]byte, error) {
	out := make([]byte, 0, m.Size)
	for _, c := range m.Chunks {
		data, err := s.ChunkData(c.Hash)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
	if int64(len(out)) != m.Size {
		return nil, fmt.Errorf("cas: blob %s reassembled to %d bytes, want %d", m.Sum.Hex(), len(out), m.Size)
	}
	if HashOf(out) != m.Sum {
		return nil, fmt.Errorf("cas: blob %s failed content verification", m.Sum.Hex())
	}
	return out, nil
}

// ChunkData returns one chunk's bytes, from memory or disk. Disk reads
// are verified against the content address.
func (s *Store) ChunkData(h Hash) ([]byte, error) {
	s.mu.Lock()
	e := s.chunks[h]
	var data []byte
	if e != nil && e.data != nil {
		data = e.data
	}
	onDisk := e != nil && e.onDisk
	s.mu.Unlock()
	if data != nil {
		return data, nil
	}
	if !onDisk {
		return nil, fmt.Errorf("cas: missing chunk %s", h.Hex())
	}
	data, err := os.ReadFile(s.chunkPath(h))
	if err != nil {
		return nil, fmt.Errorf("cas: read chunk %s: %w", h.Hex(), err)
	}
	if HashOf(data) != h {
		return nil, fmt.Errorf("cas: chunk %s failed content verification", h.Hex())
	}
	return data, nil
}

// Hashes lists every chunk the store holds — what a replication follower
// declares so the leader ships only what is missing.
func (s *Store) Hashes() []Hash {
	s.mu.Lock()
	out := make([]Hash, 0, len(s.chunks))
	for h := range s.chunks {
		out = append(out, h)
	}
	s.mu.Unlock()
	return out
}

// WriteBlob chunks a blob and makes every chunk durable, skipping chunks
// already on disk — the incremental-compaction core: a snapshot of
// mostly-unchanged state writes only the changed chunks. Written and
// reused chunks alike are protected under token until Unprotect.
func (s *Store) WriteBlob(token string, blob []byte) (Manifest, error) {
	m, parts := ManifestOf(blob)
	if err := s.flush(token, m.Chunks, parts); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// EnsureDurable makes every chunk of an existing manifest durable (flushes
// in-memory data to disk) and protects it under token.
func (s *Store) EnsureDurable(token string, m Manifest) error {
	return s.flush(token, m.Chunks, nil)
}

// PutChunk verifies data against its declared hash, makes it durable, and
// protects it under token — the replication delta receive path.
func (s *Store) PutChunk(token string, h Hash, data []byte) error {
	if HashOf(data) != h {
		return fmt.Errorf("cas: chunk %s failed content verification on receive", h.Hex())
	}
	return s.flush(token, []Chunk{{Hash: h, Size: len(data)}}, [][]byte{data})
}

// flush makes chunks durable and protects them under token; parts, when
// given, holds their bytes, else each chunk's in-memory copy is written.
// Chunk files are written without the store lock, so Put, Retain, Get and
// Release do not wait on the disk: under the lock flush protects every
// chunk (no sweep deletes one while it is written) and collects the ones
// not on disk; it writes those; then under the lock it marks them durable
// and drops their in-memory copies (reads fall through to disk).
func (s *Store) flush(token string, chunks []Chunk, parts [][]byte) error {
	type pendingChunk struct {
		h    Hash
		data []byte
	}
	var todo []pendingChunk
	s.mu.Lock()
	for i, c := range chunks {
		s.protectLocked(token, c.Hash)
		e := s.chunks[c.Hash]
		if e != nil && e.onDisk {
			e.data = nil
			continue
		}
		var data []byte
		switch {
		case parts != nil:
			data = parts[i]
		case e != nil && e.data != nil:
			data = e.data
		default:
			s.mu.Unlock()
			return fmt.Errorf("cas: flush: missing chunk %s", c.Hash.Hex())
		}
		if !slices.ContainsFunc(todo, func(p pendingChunk) bool { return p.h == c.Hash }) {
			todo = append(todo, pendingChunk{c.Hash, data})
		}
	}
	s.mu.Unlock()
	if len(todo) == 0 {
		return nil
	}

	if hook := flushTestHook; hook != nil {
		hook()
	}
	var err error
	written := 0
	for _, c := range todo {
		if err = s.writeChunk(c.h, c.data); err != nil {
			break
		}
		written++
	}

	s.mu.Lock()
	for _, c := range todo[:written] {
		e := s.chunks[c.h]
		if e == nil {
			e = &entry{size: len(c.data)}
			s.chunks[c.h] = e
		}
		e.onDisk = true
		e.data = nil
	}
	s.mu.Unlock()
	return err
}

// writeChunk publishes one chunk file: a temporary file of its own,
// fsynced unless noSync, renamed over the chunk's name. A chunk's bytes
// are its name, so two flushes renaming the same chunk agree.
func (s *Store) writeChunk(h Hash, data []byte) error {
	path := s.chunkPath(h)
	tmp := path + "." + strconv.FormatUint(s.tmpSeq.Add(1), 10) + tmpSuffix
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("cas: write chunk %s: %w", h.Hex(), err)
	}
	if !s.noSync {
		if f, err := os.Open(tmp); err == nil {
			_ = f.Sync()
			_ = f.Close()
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("cas: publish chunk %s: %w", h.Hex(), err)
	}
	return nil
}

func (s *Store) protectLocked(token string, h Hash) {
	set := s.protect[token]
	if set == nil {
		set = make(map[Hash]struct{})
		s.protect[token] = set
	}
	set[h] = struct{}{}
}

// Unprotect drops a publish token's protection (after the covering
// snapshot has been pinned, or after a failed publish — the chunks then
// become sweepable orphans, never dangling references).
func (s *Store) Unprotect(token string) {
	s.mu.Lock()
	set := s.protect[token]
	delete(s.protect, token)
	// A chunk a failed flush protected but never wrote, released meanwhile,
	// is freed as Release would have freed it.
	for h := range set {
		if e := s.chunks[h]; e != nil && e.refs == 0 && !e.onDisk && !s.heldLocked(h) {
			delete(s.chunks, h)
		}
	}
	s.mu.Unlock()
}

// SetPins replaces one owner's pin set with the chunks its newly
// published snapshot references. Called after the snapshot rename, so the
// pins always describe durable state.
func (s *Store) SetPins(owner string, hashes []Hash) {
	set := make(map[Hash]struct{}, len(hashes))
	for _, h := range hashes {
		set[h] = struct{}{}
	}
	s.mu.Lock()
	s.pins[owner] = set
	s.mu.Unlock()
}

// Sweep deletes durable chunks that no registry entry references and no
// snapshot pins — the garbage half of keep-last-K retention. Crash-safe
// by construction: a chunk is only ever deleted when nothing durable
// points at it, so a sweep torn at any point strands orphan files (found
// and removed by the next sweep or a scrub) but can never lose data.
func (s *Store) Sweep() (removed int, freed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for h, e := range s.chunks {
		if !e.onDisk || e.refs > 0 || s.heldLocked(h) {
			continue
		}
		if err := os.Remove(s.chunkPath(h)); err != nil && !os.IsNotExist(err) {
			continue // try again next sweep
		}
		removed++
		freed += int64(e.size)
		delete(s.chunks, h)
	}
	return removed, freed
}

// Scrub audits the chunk directory: every chunk file is re-hashed and
// checked against its name, orphans are counted (and removed when remove
// is set), and pinned-or-referenced chunks that are missing entirely are
// reported as data loss.
func (s *Store) Scrub(remove bool) (ScrubReport, error) {
	var rep ScrubReport
	s.mu.Lock()
	type item struct {
		h Hash
		e entry
	}
	items := make([]item, 0, len(s.chunks))
	for h, e := range s.chunks {
		items = append(items, item{h: h, e: *e})
	}
	held := make(map[Hash]struct{})
	for _, set := range s.pins {
		for h := range set {
			held[h] = struct{}{}
		}
	}
	for _, set := range s.protect {
		for h := range set {
			held[h] = struct{}{}
		}
	}
	s.mu.Unlock()
	sort.Slice(items, func(i, j int) bool { return items[i].h.Hex() < items[j].h.Hex() })

	for _, it := range items {
		_, pinned := held[it.h]
		live := it.e.refs > 0 || pinned
		if it.e.onDisk {
			rep.DiskChunks++
			rep.DiskBytes += int64(it.e.size)
			data, err := os.ReadFile(s.chunkPath(it.h))
			switch {
			case err != nil:
				if live {
					rep.Missing = append(rep.Missing, it.h)
				}
			case HashOf(data) != it.h:
				rep.Corrupt = append(rep.Corrupt, it.h)
			}
			if live {
				rep.Live++
				continue
			}
			rep.Orphans++
			rep.OrphanBytes += int64(it.e.size)
			if remove {
				n, freed := s.sweepOne(it.h)
				rep.Removed += n
				rep.RemovedBytes += freed
			}
			continue
		}
		// Memory-only chunk: fine while its data is held; loss otherwise.
		if live && it.e.data == nil {
			rep.Missing = append(rep.Missing, it.h)
		}
	}
	return rep, nil
}

// sweepOne removes a single chunk iff it is still sweepable (the state
// may have changed since Scrub sampled it).
func (s *Store) sweepOne(h Hash) (int, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.chunks[h]
	if e == nil || !e.onDisk || e.refs > 0 || s.heldLocked(h) {
		return 0, 0
	}
	if err := os.Remove(s.chunkPath(h)); err != nil && !os.IsNotExist(err) {
		return 0, 0
	}
	delete(s.chunks, h)
	return 1, int64(e.size)
}

// Stats summarizes the store's memory and disk footprint.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st Stats
	for _, e := range s.chunks {
		if e.data != nil {
			st.MemChunks++
			st.MemBytes += int64(len(e.data))
		}
		if e.onDisk {
			st.DiskChunks++
			st.DiskBytes += int64(e.size)
		}
	}
	pinned := make(map[Hash]struct{})
	for _, set := range s.pins {
		for h := range set {
			pinned[h] = struct{}{}
		}
	}
	st.Pinned = len(pinned)
	return st
}
