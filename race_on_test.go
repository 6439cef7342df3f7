//go:build race

package smarteryou_test

// raceEnabled reports whether the race detector, which allocates for its
// own bookkeeping, instruments this build.
const raceEnabled = true
