//go:build !race

package smarteryou_test

const raceEnabled = false
