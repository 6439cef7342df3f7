package main

import (
	"os"
	"testing"
)

// TestRun runs the example end to end, server and phone, with TMPDIR
// pointed at an empty directory: the example's store lives in a temporary
// directory, and nothing may be left there once it returns.
func TestRun(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	if err := run(); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in TMPDIR: %s", e.Name())
	}
}
