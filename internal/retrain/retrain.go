// Package retrain is the server-side closed loop behind the paper's
// Fig. 7: a fielded user's confidence score CS(k) decays as behaviour
// drifts from the trained model, and the system — not an operator —
// notices and retrains on fresh data.
//
// This package is the one implementation of the epsilon_CS rule: the
// Authentication Server, the Fig. 7 experiment and the facade's
// DriftMonitor all run its Monitor. It is split into two cooperating
// parts:
//
//   - Monitor: a sharded map of per-user drift states (confidence EWMA,
//     authenticated-window counter, last-train timestamp) updated on
//     every served authenticate. When a user's EWMA sits below the
//     threshold after enough windows, the monitor emits a retrain
//     Candidate. Rejected windows never update the EWMA, so an attacker
//     hammering a stolen phone cannot force the server to retrain on his
//     behaviour. State round-trips through a compact binary codec
//     (codec.go) so drift knowledge survives server restarts.
//
//   - Scheduler: a budgeted dispatcher between the monitor and the
//     training worker pool. The monitor re-emits a candidate on every
//     sub-threshold window, so the scheduler coalesces duplicates,
//     orders runnable work by priority (drift severity × model
//     staleness), holds a global concurrent-retrain budget, and applies
//     a per-user cooldown so one noisy user cannot monopolise training
//     capacity. Every dispatched candidate gets the same retrain: the
//     server's one training path, on the user's newest windows.
//
// The package has no transport or store dependencies; transport.Server
// owns the wiring (observe on authenticate, persist snapshots, execute
// retrains through its bounded pool).
package retrain

import (
	"errors"
	"time"
)

// ErrBusy is returned by a RetrainFunc when the underlying training pool
// refused the job. The scheduler counts a budget rejection and requeues
// the candidate after a short backoff instead of dropping it.
var ErrBusy = errors.New("retrain: training pool busy")

// Config tunes the drift monitor and the retrain scheduler. The zero
// value selects the paper-derived defaults documented per field.
type Config struct {
	// Threshold is epsilon_CS: a user whose confidence EWMA sits below it
	// becomes a retrain candidate (paper Section V-I uses 0.2).
	Threshold float64
	// Smoothing is the EWMA weight of each new authenticated window
	// (default 0.1): the paper's "period of time T" is about 1/Smoothing
	// accepted windows.
	Smoothing float64
	// MinWindows is how many authenticated windows must accumulate since
	// the last (re)train before the EWMA is trusted enough to emit a
	// candidate — the "sustained period" of Fig. 7 (default 20).
	MinWindows int
	// Cooldown is the minimum gap between two scheduled retrains of the
	// same user (default 30m).
	Cooldown time.Duration
	// Budget bounds how many scheduled retrains run concurrently
	// (default 2). Client-initiated trains share the underlying worker
	// pool but are not counted against this budget.
	Budget int
	// MaxQueue bounds the coalesced candidate queue; offers beyond it
	// are dropped and counted (default 1024).
	MaxQueue int
	// RecentWindows is the per-context sample budget of a scheduled
	// retrain: it trains on each coarse context's newest RecentWindows of
	// the user's windows, against as many impostor windows per context
	// (default 400, the paper's accuracy/latency sweet spot).
	RecentWindows int
	// FlushEvery is how many drift observations may accumulate before
	// the server persists a monitor snapshot to the store registry
	// (default 256).
	FlushEvery int
	// BusyBackoff is how long a scheduler worker waits before requeueing
	// a candidate the training pool refused (default 1s).
	BusyBackoff time.Duration
}

// WithDefaults returns a copy with unset fields filled in with the
// documented defaults. NewMonitor and NewScheduler apply it themselves;
// callers that need the effective values (e.g. to pace persistence by
// FlushEvery) can call it directly.
func (c Config) WithDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = 0.2
	}
	if c.Smoothing <= 0 || c.Smoothing > 1 {
		c.Smoothing = 0.1
	}
	if c.MinWindows <= 0 {
		c.MinWindows = 20
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Minute
	}
	if c.Budget <= 0 {
		c.Budget = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.RecentWindows <= 0 {
		c.RecentWindows = 400
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 256
	}
	if c.BusyBackoff <= 0 {
		c.BusyBackoff = time.Second
	}
	return c
}

// Candidate is one user the monitor believes has drifted enough to need
// retraining.
type Candidate struct {
	// User is the (anonymized) user identifier.
	User string
	// EWMA is the smoothed confidence score at emission time.
	EWMA float64
	// Windows is how many authenticated windows fed the EWMA since the
	// user's last (re)train.
	Windows uint64
	// LastTrain is when the user's model was last (re)trained — or, for
	// a model that predates the monitor, when observation began.
	LastTrain time.Time
}

// priority orders runnable candidates: drift severity (how far the EWMA
// fell below the threshold) scaled by model staleness (hours since the
// last train, floored at one so fresh-but-collapsing models still rank).
func (c Candidate) priority(threshold float64, now time.Time) float64 {
	severity := threshold - c.EWMA
	if severity < 0 {
		severity = 0
	}
	stale := now.Sub(c.LastTrain).Hours()
	if stale < 1 {
		stale = 1
	}
	return severity * stale
}
