package cas

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"smarteryou/internal/binio"
)

// randomBlob builds deterministic pseudo-random content of n bytes.
func randomBlob(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestSplitReassembles(t *testing.T) {
	for _, n := range []int{0, 1, 100, MinChunkSize, MinChunkSize + 1, 200_000} {
		blob := randomBlob(int64(n), n)
		parts := Split(blob)
		var got []byte
		for _, p := range parts {
			got = append(got, p...)
			if len(p) > MaxChunkSize {
				t.Fatalf("n=%d: chunk of %d bytes exceeds max %d", n, len(p), MaxChunkSize)
			}
		}
		if !bytes.Equal(got, blob) {
			t.Fatalf("n=%d: reassembled blob differs", n)
		}
		if n == 0 && len(parts) != 0 {
			t.Fatalf("empty blob yielded %d chunks", len(parts))
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	blob := randomBlob(7, 300_000)
	a, _ := ManifestOf(blob)
	b, _ := ManifestOf(blob)
	if a.Sum != b.Sum || len(a.Chunks) != len(b.Chunks) {
		t.Fatalf("manifests differ for identical blob")
	}
	for i := range a.Chunks {
		if a.Chunks[i] != b.Chunks[i] {
			t.Fatalf("chunk %d differs", i)
		}
	}
}

// TestSplitShiftResilience is the property fixed-width chunking lacks:
// editing bytes near the front must leave most chunks shared.
func TestSplitShiftResilience(t *testing.T) {
	blob := randomBlob(11, 400_000)
	edited := append([]byte("prefix-insertion!"), blob...)
	a, _ := ManifestOf(blob)
	b, _ := ManifestOf(edited)
	have := make(map[Hash]struct{}, len(a.Chunks))
	for _, c := range a.Chunks {
		have[c.Hash] = struct{}{}
	}
	shared := 0
	for _, c := range b.Chunks {
		if _, ok := have[c.Hash]; ok {
			shared++
		}
	}
	if shared < len(b.Chunks)*3/4 {
		t.Fatalf("only %d/%d chunks survive a front insertion", shared, len(b.Chunks))
	}
}

func TestManifestCodecRoundTrip(t *testing.T) {
	m, _ := ManifestOf(randomBlob(3, 150_000))
	buf := AppendManifest(nil, m)
	r := binio.NewReader(buf)
	got := ReadManifest(r)
	if err := r.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d trailing bytes", r.Remaining())
	}
	if got.Size != m.Size || got.Sum != m.Sum || len(got.Chunks) != len(m.Chunks) {
		t.Fatalf("manifest mismatch: %+v vs %+v", got, m)
	}
}

func TestPutGetReleaseLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	blob := randomBlob(1, 100_000)
	m := s.Put(blob)
	got, err := s.Get(m)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("round trip mismatch")
	}
	// Memory-only, unreferenced chunks vanish on release.
	s.Release(m)
	if _, err := s.Get(m); err == nil {
		t.Fatal("expected get to fail after final release")
	}
}

func TestWriteBlobDedupsOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	blob := randomBlob(2, 200_000)
	m1, err := s.WriteBlob("t", blob)
	if err != nil {
		t.Fatal(err)
	}
	first := s.Stats().DiskBytes
	// A lightly edited blob shares most chunks; rewriting must add only
	// the changed ones.
	edited := append([]byte(nil), blob...)
	copy(edited[50_000:], []byte("mutation"))
	if _, err := s.WriteBlob("t", edited); err != nil {
		t.Fatal(err)
	}
	second := s.Stats().DiskBytes
	if added := second - first; added > first/2 {
		t.Fatalf("edited blob added %d of %d bytes — dedup not working", added, first)
	}
	// Read-through after flush.
	got, err := s.Get(m1)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("disk read-through failed: %v", err)
	}
	// Reopen inventories the chunks.
	s2, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err = s2.Get(m1)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("reopened read failed: %v", err)
	}
}

func TestSweepHonorsRefsPinsProtection(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	mRef, err := s.WriteBlob("pub", randomBlob(4, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Retain(mRef); err != nil {
		t.Fatal(err)
	}
	mPin, err := s.WriteBlob("pub", randomBlob(5, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	s.SetPins("owner", mPin.Hashes())
	mProt, err := s.WriteBlob("pub2", randomBlob(6, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	mOrphan, err := s.WriteBlob("pub", randomBlob(7, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	s.Unprotect("pub") // mRef survives via refs, mPin via pin, mOrphan is garbage

	removed, _ := s.Sweep()
	if removed == 0 {
		t.Fatal("sweep removed nothing")
	}
	for _, m := range []Manifest{mRef, mPin, mProt} {
		if _, err := s.Get(m); err != nil {
			t.Fatalf("sweep deleted live data: %v", err)
		}
	}
	if _, err := s.Get(mOrphan); err == nil {
		t.Fatal("sweep kept an orphan")
	}
	// Dropping the protection makes mProt sweepable.
	s.Unprotect("pub2")
	s.Sweep()
	if _, err := s.Get(mProt); err == nil {
		t.Fatal("sweep kept an unprotected orphan")
	}
}

func TestPutChunkVerifies(t *testing.T) {
	s, err := Open(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	data := randomBlob(8, 1000)
	h := HashOf(data)
	if err := s.PutChunk("t", h, data); err != nil {
		t.Fatal(err)
	}
	if err := s.PutChunk("t", h, data[:999]); err == nil {
		t.Fatal("accepted chunk with wrong hash")
	}
	got, err := s.ChunkData(h)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("chunk read: %v", err)
	}
}

func TestScrubFindsOrphansAndCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	mLive, err := s.WriteBlob("t", randomBlob(9, 40_000))
	if err != nil {
		t.Fatal(err)
	}
	s.SetPins("owner", mLive.Hashes())
	mOrphan, err := s.WriteBlob("t", randomBlob(10, 40_000))
	if err != nil {
		t.Fatal(err)
	}
	s.Unprotect("t")

	// Corrupt one live chunk file in place.
	bad := mLive.Chunks[0].Hash
	if err := os.WriteFile(filepath.Join(dir, bad.Hex()+chunkSuffix), []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scrub(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphans == 0 || len(rep.Corrupt) != 1 || rep.Corrupt[0] != bad {
		t.Fatalf("scrub report wrong: %+v", rep)
	}
	if rep.Removed != 0 {
		t.Fatal("report-only scrub removed chunks")
	}

	rep, err = s.Scrub(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Removed == 0 {
		t.Fatal("scrub with remove kept orphans")
	}
	if _, err := s.Get(mOrphan); err == nil {
		t.Fatal("orphan still readable after scrub remove")
	}
	s.mu.Lock()
	_, live := s.chunks[mLive.Chunks[1].Hash]
	s.mu.Unlock()
	if !live {
		t.Fatal("scrub removed live chunk")
	}
}

// TestConcurrentPutSweep hammers the refcount/pin/sweep machinery from
// many goroutines; run under -race via the store package's race-cas
// target.
func TestConcurrentPutSweep(t *testing.T) {
	s, err := Open(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				blob := randomBlob(int64(g*1000+i%7), 30_000)
				m := s.Put(blob)
				if got, err := s.Get(m); err != nil || !bytes.Equal(got, blob) {
					t.Errorf("get: %v", err)
					return
				}
				token := string(rune('a' + g))
				if _, err := s.WriteBlob(token, blob); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				s.Unprotect(token)
				s.Release(m)
				if i%10 == 0 {
					s.Sweep()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestParseHexInPlace: ParseHex inverts Hex, takes upper-case digits as
// hex.Decode does, refuses a wrong length or a non-hex byte, and decodes
// without allocating.
func TestParseHexInPlace(t *testing.T) {
	h := HashOf([]byte("model"))
	for _, s := range []string{h.Hex(), strings.ToUpper(h.Hex())} {
		if got, err := ParseHex(s); err != nil || got != h {
			t.Errorf("ParseHex(%q) = %x, %v; want %x", s, got, err, h)
		}
	}
	for _, s := range []string{"", h.Hex()[1:], h.Hex() + "0", "g" + h.Hex()[1:], h.Hex()[:63] + " "} {
		if _, err := ParseHex(s); err == nil {
			t.Errorf("ParseHex(%q) succeeded", s)
		}
	}
	s := h.Hex()
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseHex(s) }); n != 0 {
		t.Errorf("ParseHex allocates %v times", n)
	}
}
