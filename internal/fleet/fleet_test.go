package fleet

import (
	"strings"
	"testing"
	"time"

	"smarteryou/internal/transport"
)

var testKey = []byte("fleet-scenario-suite")

// smokeScale is the scenario regression scale: every shipped profile runs
// with a 200-identity fleet over a 30 s-equivalent op budget.
const (
	smokeUsers    = 200
	smokeDuration = 30.0
)

// runScenario scales a profile down, self-hosts its topology, and drives
// it; the returned cluster is already closed unless keepCluster is set.
func runScenario(t *testing.T, sc Scenario, track bool) (*Report, *Cluster) {
	t.Helper()
	sc = sc.Scaled(smokeUsers, smokeDuration)
	w, err := BuildWorkload(sc)
	if err != nil {
		t.Fatalf("BuildWorkload: %v", err)
	}
	cluster, err := StartCluster(sc, w, ClusterOptions{Key: testKey, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(func() { _ = cluster.Close() })

	opts := RunOptions{
		Addr:         cluster.Addr,
		Key:          testKey,
		TrackEnrolls: track,
		Logf:         t.Logf,
	}
	if sc.FailoverAt > 0 {
		opts.MidRun = func() {
			took := cluster.Failover()
			t.Logf("failover: owner killed, replica took over in %s", took)
		}
	}
	if sc.RebalanceAt > 0 {
		opts.MidRun = func() {
			took := cluster.Rebalance()
			t.Logf("rebalance: spare node joined and acquired its share in %s", took)
		}
	}
	rep, err := Run(sc, w, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep, cluster
}

// TestScenarioSmoke is the scenario regression suite: every shipped
// profile must hold its SLO at the smoke scale. A change that slows the
// hot path, breaks redirect handling, or derails the drift loop fails
// here before it reaches a full-size benchmark run.
func TestScenarioSmoke(t *testing.T) {
	scenarios, err := LoadDir("../../scenarios")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			rep, _ := runScenario(t, sc, false)
			if want := sc.Scaled(smokeUsers, smokeDuration).SteadyOps(); int(rep.TotalOps) != want {
				t.Errorf("total ops %d, want the full budget %d", rep.TotalOps, want)
			}
			if !rep.SLO.Pass {
				t.Errorf("SLO violated:\n  %s", strings.Join(rep.SLO.Violations, "\n  "))
			}
			if auth := rep.Ops["authenticate"]; auth != nil && auth.Latency.Count == 0 {
				t.Errorf("no authenticate latency samples recorded")
			}
		})
	}
}

// TestFailoverUnderLoad kills the shard owner mid-run and asserts the
// fleet rides it out: writes bounce as redirects or wait out busy
// responses, the error budget holds, and — the paper's durability story —
// no acknowledged enrollment is lost across the replica's takeover.
func TestFailoverUnderLoad(t *testing.T) {
	sc, err := LoadScenario("../../scenarios/wan-follower-failover.json")
	if err != nil {
		t.Fatalf("LoadScenario: %v", err)
	}
	rep, cluster := runScenario(t, sc, true)
	scaled := sc.Scaled(smokeUsers, smokeDuration)

	if cluster.failoverErr != nil {
		t.Fatalf("takeover failed: %v", cluster.failoverErr)
	}
	if rep.Redirects == 0 {
		t.Errorf("no redirects recorded; write traffic never bounced through the replica")
	}
	if !rep.SLO.Pass {
		t.Errorf("SLO violated across failover:\n  %s", strings.Join(rep.SLO.Violations, "\n  "))
	}

	// Every enrollment the fleet got an ack for must exist on the
	// survivor: acked writes are in the owner's WAL, and the failover
	// drains the WAL into the replica before the takeover.
	unique := make(map[string]bool)
	for _, id := range rep.Enrolled {
		unique[id] = true
	}
	if len(unique) == 0 {
		t.Fatalf("run completed no enroll ops; mix or budget too small to exercise failover writes")
	}
	client, err := transport.NewClient(transport.ClientConfig{Addr: cluster.Addr, Key: testKey, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	users, _, err := client.Stats()
	if err != nil {
		t.Fatalf("Stats after failover: %v", err)
	}
	if want := scaled.ScoredUsers + len(unique); users != want {
		t.Errorf("survivor serves %d users, want %d (%d cohort + %d acked enrolls) — enrollments lost",
			users, want, scaled.ScoredUsers, len(unique))
	}

	// The survivor is a real owner: a fresh write lands without a
	// redirect.
	w, err := BuildWorkload(scaled)
	if err != nil {
		t.Fatalf("BuildWorkload: %v", err)
	}
	id := userID(scaled.Name, scaled.Users+1)
	enroll := NewPersona(scaled.Users+1).ApplyAll(id, w.Templates[0].Enroll)
	if _, err := client.Enroll(id, enroll); err != nil {
		t.Errorf("enroll on the survivor: %v", err)
	}
}

// TestRebalanceUnderLoad joins a spare node into the shard-ownership
// cluster mid-run and asserts the fleet rides the live handoff: sealed
// shards surface as busy/redirect protocol outcomes, the authenticate
// path never errors, and no acknowledged enrollment is lost across the
// ownership transfer.
func TestRebalanceUnderLoad(t *testing.T) {
	sc, err := LoadScenario("../../scenarios/cluster-rebalance.json")
	if err != nil {
		t.Fatalf("LoadScenario: %v", err)
	}
	rep, cluster := runScenario(t, sc, true)
	scaled := sc.Scaled(smokeUsers, smokeDuration)

	if cluster.rebalanceErr != nil {
		t.Fatalf("rebalance failed: %v", cluster.rebalanceErr)
	}
	spare := cluster.multi[len(cluster.multi)-1].node
	owned, total := spare.OwnedShards()
	if want := total / multiNodes; owned != want {
		t.Errorf("spare node owns %d of %d shards after rebalance, want %d", owned, total, want)
	}
	if !rep.SLO.Pass {
		t.Errorf("SLO violated across rebalance:\n  %s", strings.Join(rep.SLO.Violations, "\n  "))
	}
	if auth := rep.Ops["authenticate"]; auth == nil || auth.Errors != 0 {
		t.Errorf("authenticate errors across rebalance: %+v", auth)
	}
	if rep.Redirects == 0 {
		t.Errorf("no redirects recorded; write traffic never crossed shard ownership")
	}

	// Every enrollment the fleet got an ack for must exist on every
	// node: acked writes were durable at their shard owner before the
	// ack, and the mesh converges the full population everywhere — the
	// handoff cursor guarantees nothing sealed was lost.
	unique := make(map[string]bool)
	for _, id := range rep.Enrolled {
		unique[id] = true
	}
	if len(unique) == 0 {
		t.Fatalf("run completed no enroll ops; mix or budget too small to exercise rebalance writes")
	}
	want := scaled.ScoredUsers + len(unique)
	deadline := time.Now().Add(10 * time.Second)
	for i, mn := range cluster.multi {
		client, err := transport.NewClient(transport.ClientConfig{Addr: mn.addr, Key: testKey, Timeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("NewClient(node %d): %v", i, err)
		}
		// The mesh is asynchronous past the ack point; give stragglers a
		// beat to converge before declaring a loss.
		for {
			users, _, err := client.Stats()
			if err != nil {
				t.Fatalf("Stats(node %d): %v", i, err)
			}
			if users == want {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("node %d serves %d users, want %d (%d cohort + %d acked enrolls) — enrollments lost",
					i, users, want, scaled.ScoredUsers, len(unique))
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// The rebalanced cluster keeps taking writes: a shard-routing client
	// lands fresh enrollments across the new ownership map.
	w, err := BuildWorkload(scaled)
	if err != nil {
		t.Fatalf("BuildWorkload: %v", err)
	}
	routed, err := transport.NewClient(transport.ClientConfig{
		Addr: cluster.Addr, Key: testKey, Timeout: 10 * time.Second, RouteByShard: true,
	})
	if err != nil {
		t.Fatalf("NewClient(routed): %v", err)
	}
	for i := 0; i < 8; i++ {
		id := userID(scaled.Name, scaled.Users+1+i)
		enroll := NewPersona(scaled.Users+1+i).ApplyAll(id, w.Templates[i%len(w.Templates)].Enroll)
		if _, err := routed.Enroll(id, enroll); err != nil {
			t.Errorf("enroll %s after rebalance: %v", id, err)
		}
	}
}
