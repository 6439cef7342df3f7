// Command loadgen is the fleet-scale load harness: it replays declarative
// scenario profiles (scenarios/*.json) against an Authentication Server
// and publishes per-op latency histograms, throughput, error/redirect/
// busy counts and SLO verdicts into a BENCH_fleet.json document.
//
// By default each scenario self-hosts: loadgen synthesizes the template
// workload, starts the scenario's in-process topology (a single server,
// or a shard-ownership cluster — an owner plus a read replica with
// traffic aimed at the replica, or three nodes with a spare for mid-run
// rebalance), runs
// the load through the scenario's simulated network conditions, and
// tears the cluster down. With -addr the same traffic targets an
// already-running authserver instead (network conditioning still
// applies; multi-node topologies and their mid-run hooks need
// self-hosting and are skipped).
//
// Scenario files carry full fleet sizes (10^5..10^6 identities); -users
// and -duration scale a run down (or up) proportionally, cohort and
// template pool included, so the same profiles serve both the long-form
// benchmark and a quick smoke run:
//
//	loadgen -scenarios scenarios -out BENCH_fleet.json -users 4000 -duration 15
//	loadgen -scenario baseline-lan -users 200000            # one profile, full size
//	loadgen -addr 127.0.0.1:7600 -key secret -scenario baseline-lan
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"smarteryou/internal/fleet"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		dir      = flag.String("scenarios", "scenarios", "directory of scenario profiles (*.json)")
		only     = flag.String("scenario", "", "comma-separated scenario names to run (default: all in -scenarios)")
		out      = flag.String("out", "BENCH_fleet.json", "benchmark output path")
		addr     = flag.String("addr", "", "target an already-running authserver instead of self-hosting (skips follower/failover scenarios)")
		key      = flag.String("key", "fleet-bench", "pre-shared HMAC key (must match the server's when -addr is set)")
		users    = flag.Int("users", 0, "override fleet size, scaling cohort and template pool proportionally (0: profile value)")
		duration = flag.Float64("duration", 0, "override modeled steady-state seconds (0: profile value)")
		workers  = flag.Int("workers", 0, "override concurrent load workers (0: profile value)")
		strict   = flag.Bool("strict", false, "exit non-zero when any scenario fails its SLO")
		quiet    = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Parse()

	scenarios, err := fleet.LoadDir(*dir)
	if err != nil {
		log.Print(err)
		return 1
	}
	if *only != "" {
		scenarios = filterScenarios(scenarios, *only)
		if len(scenarios) == 0 {
			log.Printf("loadgen: no scenario in %s matches -scenario %q", *dir, *only)
			return 1
		}
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	var reports []fleet.Report
	for _, sc := range scenarios {
		sc = sc.Scaled(*users, *duration)
		if *workers > 0 {
			sc.Workers = *workers
		}
		if *addr != "" && sc.Cluster != fleet.ClusterSingle {
			logf("loadgen: skipping %s: the %s topology needs self-hosting", sc.Name, sc.Cluster)
			continue
		}
		rep, err := runScenario(sc, *addr, []byte(*key), logf)
		if err != nil {
			log.Printf("loadgen: scenario %s: %v", sc.Name, err)
			return 1
		}
		reports = append(reports, *rep)
		verdict := "PASS"
		if !rep.SLO.Pass {
			verdict = "FAIL: " + strings.Join(rep.SLO.Violations, "; ")
		}
		fmt.Printf("%-24s %7d ops %8.1f ops/s  auth p99 %8.2fms%s  err %.4f  %s\n",
			sc.Name, rep.TotalOps, rep.Throughput, authP99(rep), burstP99s(rep), rep.ErrorRate, verdict)
	}
	if len(reports) == 0 {
		log.Print("loadgen: nothing ran")
		return 1
	}
	if err := fleet.WriteBench(*out, reports); err != nil {
		log.Print(err)
		return 1
	}
	logf("loadgen: wrote %s (%d scenarios)", *out, len(reports))
	if *strict {
		for _, r := range reports {
			if !r.SLO.Pass {
				return 1
			}
		}
	}
	return 0
}

// runScenario executes one scenario, self-hosting its topology unless an
// external address is given.
func runScenario(sc fleet.Scenario, extAddr string, key []byte, logf func(string, ...any)) (*fleet.Report, error) {
	logf("loadgen: %s: synthesizing %d-template workload (fleet %d, cohort %d)...",
		sc.Name, sc.TemplateUsers, sc.Users, sc.ScoredUsers)
	w, err := fleet.BuildWorkload(sc)
	if err != nil {
		return nil, err
	}

	opts := fleet.RunOptions{Key: key, Logf: logf}
	if extAddr != "" {
		opts.Addr = extAddr
		return fleet.Run(sc, w, opts)
	}

	scratch, err := os.MkdirTemp("", "loadgen-"+sc.Name+"-*")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(scratch) }()
	cluster, err := fleet.StartCluster(sc, w, fleet.ClusterOptions{
		Key: key,
		Dir: filepath.Join(scratch, "stores"),
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = cluster.Close() }()

	opts.Addr = cluster.Addr
	var failoverTook, rebalanceTook float64
	if sc.FailoverAt > 0 {
		opts.MidRun = func() {
			took := cluster.Failover()
			failoverTook = float64(took.Milliseconds())
			logf("loadgen: %s: owner killed, replica took over in %s", sc.Name, took)
		}
	}
	if sc.RebalanceAt > 0 {
		opts.MidRun = func() {
			took := cluster.Rebalance()
			rebalanceTook = float64(took.Milliseconds())
			logf("loadgen: %s: spare node joined, shards handed off in %s", sc.Name, took)
		}
	}
	rep, err := fleet.Run(sc, w, opts)
	if err != nil {
		return nil, err
	}
	rep.FailoverTookMs = failoverTook
	rep.RebalanceTookMs = rebalanceTook
	return rep, nil
}

// filterScenarios keeps the named profiles, preserving directory order.
func filterScenarios(all []fleet.Scenario, names string) []fleet.Scenario {
	want := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		want[strings.TrimSpace(n)] = true
	}
	var out []fleet.Scenario
	for _, sc := range all {
		if want[sc.Name] {
			out = append(out, sc)
		}
	}
	return out
}

// authP99 pulls the authenticate p99 for the console line (0 when the
// scenario had no authenticate traffic).
func authP99(r *fleet.Report) float64 {
	if op := r.Ops["authenticate"]; op != nil {
		return op.Latency.P99Ms
	}
	return 0
}

// burstP99s renders the batch/stream per-window p99s when the scenario
// carried burst traffic (empty otherwise, keeping the classic line).
func burstP99s(r *fleet.Report) string {
	var b strings.Builder
	for _, op := range [...]string{"batch", "stream"} {
		if o := r.Ops[op]; o != nil {
			fmt.Fprintf(&b, "  %s p99/w %.2fms", op, o.Latency.P99Ms)
		}
	}
	return b.String()
}
