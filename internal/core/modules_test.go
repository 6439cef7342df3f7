package core

import (
	"testing"

	"smarteryou/internal/features"
)

func TestResponseModuleEscalation(t *testing.T) {
	r := NewResponseModule(ResponsePolicy{DenyAfter: 1, LockAfter: 3})
	accept := Decision{Accepted: true, Score: 1}
	reject := Decision{Accepted: false, Score: -1}

	if got := r.Observe(accept); got != ActionAllow {
		t.Errorf("accept -> %v, want allow", got)
	}
	if got := r.Observe(reject); got != ActionDeny {
		t.Errorf("first reject -> %v, want deny", got)
	}
	if got := r.Observe(reject); got != ActionDeny {
		t.Errorf("second reject -> %v, want deny", got)
	}
	if got := r.Observe(reject); got != ActionLock {
		t.Errorf("third reject -> %v, want lock", got)
	}
	if !r.Locked() {
		t.Errorf("module should be locked")
	}
	// Once locked, even accepted windows stay locked until explicit auth.
	if got := r.Observe(accept); got != ActionLock {
		t.Errorf("post-lock accept -> %v, want lock", got)
	}
	r.Unlock()
	if r.Locked() {
		t.Errorf("Unlock did not clear the lock")
	}
	if got := r.Observe(accept); got != ActionAllow {
		t.Errorf("post-unlock accept -> %v, want allow", got)
	}
}

func TestResponseModuleAcceptResetsRun(t *testing.T) {
	r := NewResponseModule(ResponsePolicy{LockAfter: 3})
	reject := Decision{Accepted: false}
	accept := Decision{Accepted: true}
	r.Observe(reject)
	r.Observe(reject)
	r.Observe(accept) // legitimate user misclassified twice, then accepted
	r.Observe(reject)
	r.Observe(reject)
	if r.Locked() {
		t.Errorf("interleaved accepts should prevent lockout")
	}
}

func TestResponsePolicyDefaults(t *testing.T) {
	r := NewResponseModule(ResponsePolicy{})
	if r.policy.DenyAfter != 1 || r.policy.LockAfter != 3 {
		t.Errorf("defaults = %+v, want DenyAfter=1 LockAfter=3", r.policy)
	}
	inverted := ResponsePolicy{DenyAfter: 5, LockAfter: 2}.withDefaults()
	if inverted.LockAfter < inverted.DenyAfter {
		t.Errorf("LockAfter should be raised to at least DenyAfter")
	}
}

func TestActionString(t *testing.T) {
	if ActionAllow.String() != "allow" || ActionDeny.String() != "deny" || ActionLock.String() != "lock" {
		t.Errorf("action strings wrong")
	}
}

func TestEnrollmentForcedCompletion(t *testing.T) {
	e := NewEnrollment()
	e.MaxSamples = 10
	e.MinSamples = 1000 // convergence path disabled
	var done bool
	for i := 0; i < 10; i++ {
		done = e.Add(features.WindowSample{})
	}
	if !done || !e.Done() {
		t.Errorf("enrollment should force-complete at MaxSamples")
	}
	if e.Count() != 10 {
		t.Errorf("Count = %d, want 10", e.Count())
	}
	if !e.Add(features.WindowSample{}) {
		t.Errorf("Add after completion should keep reporting done")
	}
}

func TestEnrollmentConvergesOnStableDistribution(t *testing.T) {
	f := newFixture(t, 2, 120)
	e := NewEnrollment()
	e.MinSamples = 20
	e.CheckEvery = 10
	e.Tolerance = 0.05
	e.MaxSamples = 100000
	converged := false
	samples := f.perUser[0]
	for i := 0; i < len(samples) && !converged; i++ {
		converged = e.Add(samples[i])
	}
	if !converged {
		t.Errorf("enrollment never converged over %d stable-distribution samples", len(samples))
	}
	if e.Count() >= len(samples) {
		t.Logf("convergence used all %d samples", e.Count())
	}
	got := e.Samples()
	if len(got) != e.Count() {
		t.Errorf("Samples length %d != Count %d", len(got), e.Count())
	}
}
