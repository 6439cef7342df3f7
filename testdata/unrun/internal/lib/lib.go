// Package lib declares one name of each kind the unrun scan sorts.
package lib

// Thing is returned by Live, so it is named.
type Thing struct{ n int }

// Live is called by cmd/app.
func Live() Thing { return Thing{n: 1} }

// Dead is called by nothing.
func Dead() int { return Live().n }

// Unused is a method nothing calls.
func (t Thing) Unused() int { return t.n }

// UnmarshalJSON is called by encoding/json through an interface.
func (t *Thing) UnmarshalJSON([]byte) error { return nil }
