package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smarteryou"
)

// TestBootstrapDetectorRefusesDamagedRegistry: a published detector the
// registry can no longer produce is not "nothing published" — startup must
// fail pointing at -store-scrub instead of training a different detector
// and publishing it over the damaged one.
func TestBootstrapDetectorRefusesDamagedRegistry(t *testing.T) {
	dir := t.TempDir()
	open := func() *smarteryou.PopulationStore {
		t.Helper()
		st, err := smarteryou.OpenStore(dir, smarteryou.StoreOptions{NoSync: true})
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		return st
	}

	// First start: nothing published is ErrNoModel, so a detector is
	// trained and published.
	st := open()
	if _, _, err := bootstrapDetector(st, 2, 1, true); err != nil {
		t.Fatalf("bootstrapDetector on an empty store: %v", err)
	}
	if err := st.Snapshot(); err != nil { // flush the detector's chunks to disk
		t.Fatalf("Snapshot: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Open checks that chunk files exist, not what is in them: flip a byte
	// in each so the read fails.
	chunks, _ := filepath.Glob(filepath.Join(dir, "cas", "*"))
	if len(chunks) == 0 {
		t.Fatalf("no chunk files under %s/cas", dir)
	}
	for _, f := range chunks {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("read chunk: %v", err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatalf("damage chunk: %v", err)
		}
	}

	st = open()
	defer st.Close()
	_, _, err := bootstrapDetector(st, 2, 1, true)
	if err == nil || errors.Is(err, smarteryou.ErrNoModel) || !strings.Contains(err.Error(), "-store-scrub") {
		t.Fatalf("bootstrapDetector over a damaged registry: err = %v, want a failure pointing at -store-scrub", err)
	}
	if _, err := st.LatestDetector(); err == nil {
		t.Errorf("the registry's detector reads again: one was published over the damaged one")
	}
}
