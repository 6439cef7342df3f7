package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestQuickCampaignGolden runs the quick campaign in process under
// GOMAXPROCS 1 and 2, and each report must equal its golden file in
// testdata/quick/ byte for byte: same seed, same bytes, so a change that
// moves any number fails here, and its regenerated golden files (make
// paper-snapshot) show the move line by line. The bytes are pinned for
// amd64: Go may fuse multiply-add on arm64.
//
// It is skipped under -short, which skips the slow experiment sweeps
// everywhere, and under -race, where one pass takes minutes instead of
// seconds.
func TestQuickCampaignGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: the quick campaign takes seconds per pass")
	}
	if raceEnabled {
		t.Skip("slow under the race detector")
	}
	golden := filepath.Join("..", "..", "testdata", "quick")
	entries, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			out := t.TempDir()
			if code := run([]string{"-quick", "-run", "all", "-out", out}, io.Discard); code != 0 {
				t.Fatalf("experiments exited %d", code)
			}
			got, err := os.ReadDir(out)
			if err != nil {
				t.Fatal(err)
			}
			if names(got) != names(entries) {
				t.Fatalf("reports %s, golden files %s", names(got), names(entries))
			}
			for _, e := range entries {
				want, err := os.ReadFile(filepath.Join(golden, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				have, err := os.ReadFile(filepath.Join(out, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(have, want) {
					t.Errorf("%s differs from the golden file at %s", e.Name(), firstDiff(want, have))
				}
			}
		})
	}
}

func names(entries []os.DirEntry) string {
	var ns []string
	for _, e := range entries {
		ns = append(ns, e.Name())
	}
	return strings.Join(ns, " ")
}

// firstDiff describes the first line where got differs from want.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of file)"
	}
	return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, line(g), line(w))
}
