//go:build race

package main

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
