package main

import "testing"

// TestRun runs the example end to end: it fails unless the thief is
// locked out and the audit log's hash chain verifies.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
