package cas

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// holdFlushes installs a flushTestHook that parks every flush at the
// hook until release is closed, announcing each arrival on arrived.
func holdFlushes(t *testing.T) (arrived chan struct{}, release chan struct{}) {
	t.Helper()
	arrived, release = make(chan struct{}, 8), make(chan struct{})
	flushTestHook = func() {
		arrived <- struct{}{}
		<-release
	}
	t.Cleanup(func() { flushTestHook = nil })
	return arrived, release
}

// within fails the test if f has not returned after a few seconds.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s waited for a flush in flight", what)
	}
}

// TestFlushWritesChunkFilesWithoutTheLock holds a flush between
// collecting its chunks and writing them: Put, Retain, ChunkData, Get and
// Release of other chunks return meanwhile, and the flush completes once
// let go.
func TestFlushWritesChunkFilesWithoutTheLock(t *testing.T) {
	s, err := Open(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	other := s.Put(randomBlob(11, 30_000))
	arrived, release := holdFlushes(t)
	flushed := make(chan error, 1)
	blob := randomBlob(12, 30_000)
	go func() {
		_, err := s.WriteBlob("t", blob)
		flushed <- err
	}()
	<-arrived

	within(t, "Put", func() { s.Put(randomBlob(13, 30_000)) })
	within(t, "Retain", func() {
		if err := s.Retain(other); err != nil {
			t.Errorf("Retain: %v", err)
		}
	})
	within(t, "ChunkData", func() {
		if _, err := s.ChunkData(other.Chunks[0].Hash); err != nil {
			t.Errorf("ChunkData: %v", err)
		}
	})
	within(t, "Get", func() {
		if _, err := s.Get(other); err != nil {
			t.Errorf("Get: %v", err)
		}
	})
	within(t, "Release", func() { s.Release(other) })

	close(release)
	if err := <-flushed; err != nil {
		t.Fatalf("WriteBlob: %v", err)
	}
	m, _ := ManifestOf(blob)
	if got, err := s.Get(m); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("flushed blob does not read back: %v", err)
	}
	if st := s.Stats(); st.DiskChunks != len(m.Chunks) {
		t.Errorf("%d chunks on disk, want %d", st.DiskChunks, len(m.Chunks))
	}
}

// TestTwoFlushesOfOneChunk: two flushes (two shards compacting) write the
// same chunks at once, each through a temporary file of its own; both
// succeed, a sweep between them and their unprotect keeps the chunks, and
// no temporary file is left.
func TestTwoFlushesOfOneChunk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	arrived, release := holdFlushes(t)
	blob := randomBlob(14, 30_000)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, token := range []string{"shard-a", "shard-b"} {
		wg.Add(1)
		go func(token string) {
			defer wg.Done()
			_, err := s.WriteBlob(token, blob)
			errs <- err
		}(token)
	}
	<-arrived
	<-arrived
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("WriteBlob: %v", err)
		}
	}
	s.Unprotect("shard-a")
	s.Sweep()
	m, _ := ManifestOf(blob)
	if got, err := s.Get(m); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("chunk lost while another flush protected it: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			t.Errorf("temporary file %s left behind", e.Name())
		}
	}
}

// TestChunkPathIsOneAllocation: a chunk's path is the one filepath.Join
// builds, in one allocation.
func TestChunkPathIsOneAllocation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir+string(filepath.Separator), true)
	if err != nil {
		t.Fatal(err)
	}
	h := HashOf([]byte("chunk"))
	if got, want := s.chunkPath(h), filepath.Join(dir, h.Hex()+chunkSuffix); got != want {
		t.Fatalf("chunkPath = %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { s.chunkPath(h) }); n != 1 {
		t.Errorf("chunkPath allocates %v times, want 1", n)
	}
}
