// Package cas is the store's content-addressed blob layer: model bundles
// and window blobs are split into content-defined chunks, each chunk is
// keyed by its SHA-256, and a blob is represented by a Manifest — the
// ordered chunk-hash list plus the whole-blob hash. Two blobs that share
// bytes (successive versions of an incrementally retrained model, two
// snapshots of a mostly-unchanged shard) share chunks, so the registry
// stores and ships each byte range once.
//
// The design follows BuildKit's layer-cache discipline: dedup by content
// hash, invalidate by identity. Content addressing makes storage and
// transfer idempotent — writing a chunk that already exists is a no-op,
// and a replica can declare the hashes it holds and receive only the
// rest. Identity (which manifest a (user, version) registry entry points
// at, which chunks the current shard snapshot pins) is what the owning
// layer mutates; the chunks themselves are immutable.
//
// Lifetimes are tracked two ways, both ending in Sweep:
//
//   - refcounts follow the in-memory registry: every live (user, version)
//     entry retains its manifest's chunks, and keep-last-K trimming
//     releases them;
//   - pins follow the on-disk snapshots: each shard pins exactly the
//     chunks its published snapshot.cas references, so a crash can never
//     lose a chunk the current snapshot needs.
//
// Sweep deletes only chunks with zero references, no pin, and no
// in-flight publish protection — so a torn sweep strands at worst
// unreferenced files (orphans), which the next sweep or a scrub removes.
package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// HashSize is the chunk/blob key length (SHA-256).
const HashSize = sha256.Size

// Hash is a content address: the SHA-256 of a chunk or whole blob.
type Hash [HashSize]byte

// HashOf returns the content address of a byte slice.
func HashOf(b []byte) Hash { return sha256.Sum256(b) }

// Hex renders the hash as lowercase hex (the on-disk chunk file name and
// the wire/ETag form).
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// ParseHex decodes a hex content address (as Hex writes it; upper-case
// digits are accepted too). It reads s in place, so a valid address
// decodes without allocating.
func ParseHex(s string) (Hash, error) {
	var h Hash
	if len(s) != 2*HashSize {
		return Hash{}, fmt.Errorf("cas: hash hex length %d, want %d", len(s), 2*HashSize)
	}
	for i := range h {
		hi, okHi := fromHexChar(s[2*i])
		lo, okLo := fromHexChar(s[2*i+1])
		if !okHi || !okLo {
			return Hash{}, fmt.Errorf("cas: decode hash: invalid byte in %q", s)
		}
		h[i] = hi<<4 | lo
	}
	return h, nil
}

// fromHexChar converts one hex digit to its value.
func fromHexChar(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Chunk is one content-defined slice of a blob, as referenced by a
// Manifest.
type Chunk struct {
	Hash Hash
	Size int
}

// Manifest is a blob's identity: its total size, whole-blob hash, and the
// ordered chunk list that reassembles it. Manifests are small (a few
// hashes) and travel inline in snapshots and registry entries; the bulk
// bytes live once per chunk in the chunk store.
type Manifest struct {
	Size   int64
	Sum    Hash
	Chunks []Chunk
}

// ManifestOf chunks a blob and returns its manifest plus the chunk byte
// slices (aliasing blob) in manifest order. It is a pure function — the
// same blob always yields the same manifest on every build and machine,
// which is what makes chunk hashes comparable across nodes.
func ManifestOf(blob []byte) (Manifest, [][]byte) {
	parts := Split(blob)
	m := Manifest{
		Size:   int64(len(blob)),
		Sum:    HashOf(blob),
		Chunks: make([]Chunk, len(parts)),
	}
	for i, p := range parts {
		m.Chunks[i] = Chunk{Hash: HashOf(p), Size: len(p)}
	}
	return m, parts
}

// Hashes returns the manifest's chunk hashes in order (duplicates
// preserved).
func (m Manifest) Hashes() []Hash {
	out := make([]Hash, len(m.Chunks))
	for i, c := range m.Chunks {
		out[i] = c.Hash
	}
	return out
}
