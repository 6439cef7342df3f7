package main

import "testing"

// TestRun runs the example end to end: it fails if the attacker
// triggers a retrain.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
