package retrain

import (
	"fmt"
	"testing"
	"time"
)

func testConfig() Config {
	return Config{Threshold: 0.2, Smoothing: 0.5, MinWindows: 3}
}

func TestMonitorEmitsAfterSustainedDrift(t *testing.T) {
	m := NewMonitor(testConfig())
	now := time.Unix(1_700_000_000, 0)

	// Healthy windows: never a candidate.
	for i := 0; i < 5; i++ {
		if _, fire := m.Observe("u1", 0.8, true, now); fire {
			t.Fatalf("healthy window %d emitted a candidate", i)
		}
	}
	// Drifted windows: EWMA decays below threshold and fires.
	fired := false
	for i := 0; i < 10; i++ {
		if c, fire := m.Observe("u1", -0.1, true, now); fire {
			fired = true
			if c.User != "u1" {
				t.Fatalf("candidate user = %q", c.User)
			}
			if c.EWMA >= 0.2 {
				t.Fatalf("candidate EWMA %.3f not below threshold", c.EWMA)
			}
			if c.Windows < 3 {
				t.Fatalf("candidate after only %d windows", c.Windows)
			}
			break
		}
	}
	if !fired {
		t.Fatal("sustained drift never emitted a candidate")
	}
}

// TestMonitorDefaultRule runs the documented defaults (epsilon_CS 0.2,
// smoothing 0.1, 20 windows) against the two trajectories of Fig. 7.
func TestMonitorDefaultRule(t *testing.T) {
	if c := (Config{}).WithDefaults(); c.Threshold != 0.2 || c.Smoothing != 0.1 || c.MinWindows != 20 {
		t.Fatalf("defaults: threshold %v, smoothing %v, min windows %v", c.Threshold, c.Smoothing, c.MinWindows)
	}
	now := time.Unix(1_700_000_000, 0)

	// A healthy user with one or two weak windows among strong ones: the
	// smoothed score stays high, so the monitor never fires.
	healthy := NewMonitor(Config{})
	for i := 0; i < 200; i++ {
		score := 0.9
		if i%4 == 3 || i%20 == 18 {
			score = 0.05
		}
		if _, fire := healthy.Observe("u1", score, true, now); fire {
			t.Fatalf("isolated dips fired at window %d", i+1)
		}
	}

	// A slow, noisy decline fires once the smoothed score settles under
	// the threshold.
	drifting := NewMonitor(Config{})
	score, fired := 0.8, false
	for i := 0; i < 400 && !fired; i++ {
		score -= 0.002
		noise := 0.3
		if i%2 == 0 {
			noise = -0.3
		}
		_, fired = drifting.Observe("u1", score+noise, true, now)
	}
	if !fired {
		t.Fatal("monitor never fired on a declining trajectory")
	}
}

func TestMonitorMinWindowsGate(t *testing.T) {
	m := NewMonitor(Config{Threshold: 0.2, Smoothing: 0.5, MinWindows: 50})
	now := time.Now()
	for i := 0; i < 49; i++ {
		if _, fire := m.Observe("u1", -1.0, true, now); fire {
			t.Fatalf("fired at window %d, before MinWindows", i+1)
		}
	}
	if _, fire := m.Observe("u1", -1.0, true, now); !fire {
		t.Fatal("did not fire once MinWindows accumulated")
	}
}

func TestMonitorRejectedWindowsDoNotMoveEWMA(t *testing.T) {
	m := NewMonitor(testConfig())
	now := time.Now()
	m.Observe("u1", 0.9, true, now)
	before, _ := m.State("u1")
	// An attacker's rejected windows carry very negative scores; they must
	// neither move the EWMA nor ever produce a candidate.
	for i := 0; i < 100; i++ {
		if _, fire := m.Observe("u1", -5.0, false, now); fire {
			t.Fatal("rejected windows produced a retrain candidate")
		}
	}
	after, _ := m.State("u1")
	if after.EWMA != before.EWMA || after.Windows != before.Windows {
		t.Fatalf("rejected windows mutated state: %+v -> %+v", before, after)
	}
}

func TestMonitorMarkTrainedResets(t *testing.T) {
	m := NewMonitor(testConfig())
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < 10; i++ {
		m.Observe("u1", -0.5, true, now)
	}
	trainedAt := now.Add(time.Hour)
	m.MarkTrained("u1", trainedAt)
	st, ok := m.State("u1")
	if !ok {
		t.Fatal("state vanished after MarkTrained")
	}
	if st.Primed || st.Windows != 0 || st.EWMA != 0 {
		t.Fatalf("MarkTrained left residue: %+v", st)
	}
	if st.LastTrainUnix != trainedAt.Unix() {
		t.Fatalf("LastTrainUnix = %d, want %d", st.LastTrainUnix, trainedAt.Unix())
	}
	// Immediately after a retrain the healthy user must not re-fire.
	if _, fire := m.Observe("u1", 0.9, true, trainedAt); fire {
		t.Fatal("fired immediately after MarkTrained on a healthy window")
	}
}

func TestMonitorSnapshotRestoreRoundTrip(t *testing.T) {
	m := NewMonitor(testConfig())
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < 40; i++ {
		m.Observe(fmt.Sprintf("user-%d", i), float64(i)*0.01, true, now)
	}
	snap := m.Snapshot()
	if len(snap) != 40 {
		t.Fatalf("snapshot has %d users, want 40", len(snap))
	}
	m2 := NewMonitor(testConfig())
	m2.Restore(snap)
	if m2.Count() != 40 {
		t.Fatalf("restored monitor tracks %d users, want 40", m2.Count())
	}
	for user, want := range snap {
		got, ok := m2.State(user)
		if !ok || got != want {
			t.Fatalf("state for %s: got %+v ok=%v, want %+v", user, got, ok, want)
		}
	}
}

func TestCandidatePriorityOrdersSeverityTimesStaleness(t *testing.T) {
	now := time.Now()
	mild := Candidate{User: "mild", EWMA: 0.15, LastTrain: now.Add(-2 * time.Hour)}
	severe := Candidate{User: "severe", EWMA: -0.4, LastTrain: now.Add(-2 * time.Hour)}
	if severe.priority(0.2, now) <= mild.priority(0.2, now) {
		t.Fatal("more severe drift must outrank milder drift at equal staleness")
	}
	fresh := Candidate{User: "fresh", EWMA: 0.1, LastTrain: now}
	stale := Candidate{User: "stale", EWMA: 0.1, LastTrain: now.Add(-48 * time.Hour)}
	if stale.priority(0.2, now) <= fresh.priority(0.2, now) {
		t.Fatal("staler model must outrank fresher model at equal severity")
	}
}
