package core

import (
	"fmt"
	"sync"
)

// Action is the response module's verdict after observing a decision
// (Section IV-A2): keep allowing access, deny access to security-critical
// data, or lock the device pending explicit re-authentication.
type Action int

// Response actions, in escalating order.
const (
	ActionAllow Action = iota + 1
	ActionDeny
	ActionLock
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionAllow:
		return "allow"
	case ActionDeny:
		return "deny"
	case ActionLock:
		return "lock"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// ResponsePolicy tunes the response module's escalation. A single
// misclassified window should not lock the legitimate owner out (the FRR
// is ~1%, Section V-F4), so escalation is driven by consecutive rejects.
type ResponsePolicy struct {
	// DenyAfter consecutive rejected windows, access to security-critical
	// data is denied (default 1).
	DenyAfter int
	// LockAfter consecutive rejected windows, the device locks and
	// explicit authentication is required (default 3, i.e. 18 s at the
	// paper's 6 s window — the time by which the paper's Fig. 6 catches
	// every masquerader; the reproduction's Fig. 6 catches 92.4 % by then,
	// see results_paper_scale.txt).
	LockAfter int
}

func (p ResponsePolicy) withDefaults() ResponsePolicy {
	if p.DenyAfter <= 0 {
		p.DenyAfter = 1
	}
	if p.LockAfter <= 0 {
		p.LockAfter = 3
	}
	if p.LockAfter < p.DenyAfter {
		p.LockAfter = p.DenyAfter
	}
	return p
}

// ResponseModule accumulates decisions and escalates. It is safe for
// concurrent use.
type ResponseModule struct {
	mu      sync.Mutex
	policy  ResponsePolicy
	rejects int
	locked  bool
}

// NewResponseModule returns a response module with the given policy.
func NewResponseModule(policy ResponsePolicy) *ResponseModule {
	return &ResponseModule{policy: policy.withDefaults()}
}

// Observe folds one authentication decision into the module state and
// returns the action to take now.
func (r *ResponseModule) Observe(d Decision) Action {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.locked {
		return ActionLock
	}
	if d.Accepted {
		r.rejects = 0
		return ActionAllow
	}
	r.rejects++
	if r.rejects >= r.policy.LockAfter {
		r.locked = true
		return ActionLock
	}
	if r.rejects >= r.policy.DenyAfter {
		return ActionDeny
	}
	return ActionAllow
}

// Locked reports whether the device is locked.
func (r *ResponseModule) Locked() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.locked
}

// Unlock resets the module after a successful explicit authentication
// (password, fingerprint, or multi-factor — Section IV-B).
func (r *ResponseModule) Unlock() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.locked = false
	r.rejects = 0
}
