// Command benchmark is the repository's benchmark: four workloads, each
// measured end to end with tracing off and layer by layer in a separate
// traced run, with correctness checks in the same command. README.md in
// this directory defines every metric; BENCHMARK.json at the repository
// root lists them with their bounds.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1   one run, JSON on the last line
//	benchmark [-seed N] [-seconds S] [-repeat R]             all workloads, a table, out/results.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the recorded baseline was measured with; the
// README names the hold-out seed to repeat a claim on.
const defaultSeed = 20170626

const (
	setupsPerRun   = 3
	roundsPerSetup = 7
	// The traced run spends its --seconds as a reference stretch with
	// tracing off, a traced stretch, and the isolated probes.
	refShare, tracedShare = 0.25, 0.35
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "run this one workload and print its result as JSON on the last line (default: all workloads, as a table)")
		seed    = flag.Int64("seed", defaultSeed, "seed all inputs are generated from")
		seconds = flag.Float64("seconds", 20, "length of one measured run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run and probes")
		repeat  = flag.Int("repeat", 1, "all-workloads mode: run the suite this many times, on seeds seed, seed+1, ..., and print the spread of every end-to-end metric")
		out     = flag.String("out", defaultOutDir(), "directory for traces, results and scratch data")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	if *name == "" {
		return suite(*seed, *seconds, *repeat, *out)
	}
	def, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	rep, err := runOne(def, *seed, *seconds, *trace == 1, setupsPerRun, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", def.Name, err)
		return 1
	}
	printReport(rep)
	if err := writeJSON(filepath.Join(*out, reportFile(def.Name, rep.Trace)), rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(resultLine(rep))
	if !rep.Correct {
		return 1
	}
	return 0
}

// defaultOutDir is benchmark/out from the repository root, where the
// command is normally run, and out from inside the benchmark directory.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func reportFile(workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return fmt.Sprintf("report-%s-trace%d.json", workload, t)
}

// runOne runs one workload once. With tracing off it sets up several
// times, because set-up time is a metric, and measures a share of the
// rounds on each set-up, which also spreads the set-ups over the run.
func runOne(def workloadDef, seed int64, seconds float64, trace bool, setups int, outDir string) (rep *report, err error) {
	dataRoot := filepath.Join(outDir, "data", fmt.Sprintf("%s-%d", def.Name, os.Getpid()))
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataRoot)

	rep = &report{
		Workload: def.Name, Seed: seed, Trace: trace, Seconds: seconds,
		Metrics: map[string]float64{}, Rounds: map[string][]float64{},
	}
	if trace {
		setups = 1
	}
	var w workload
	defer func() {
		if w != nil {
			if terr := w.teardown(); terr != nil && err == nil {
				err = fmt.Errorf("teardown: %w", terr)
			}
		}
	}()
	round := time.Duration(seconds / float64(setups*roundsPerSetup) * float64(time.Second))
	for i := 0; i < setups; i++ {
		if w != nil {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("teardown between set-ups: %w", err)
			}
		}
		w = def.make()
		t0 := time.Now()
		if err := w.setup(seed, filepath.Join(dataRoot, fmt.Sprintf("setup-%d", i))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.Rounds["setup_s"] = append(rep.Rounds["setup_s"], time.Since(t0).Seconds())
		rep.Sessions = w.sessions()
		if trace {
			err = tracedRun(rep, w, seconds, outDir)
		} else {
			err = untracedRounds(rep, w, round)
		}
		if err != nil {
			return nil, err
		}
	}
	if !trace {
		for _, m := range endToEndMetrics {
			if vals := rep.Rounds[m.Name]; len(vals) > 0 {
				rep.set(m.Name, steady(vals, m.Better == "higher"))
			}
		}
		rep.set("setup_s", median(rep.Rounds["setup_s"]))
		var stolen float64
		for _, s := range rep.Rounds["host_steal_s"] {
			stolen += s
		}
		rep.note("the hypervisor stole %.2f s of CPU from this machine during the %g s of rounds", stolen, seconds)
		rep.set("rss_peak_mb", rssPeakMB())
	}
	attempted, failed, err := w.verify(rep)
	if err != nil {
		return nil, fmt.Errorf("correctness checks: %w", err)
	}
	rep.Attempted += attempted
	rep.Failed += failed
	rep.Correct = rep.Failed == 0
	if trace {
		rep.set("fail_ratio", float64(rep.Failed)/float64(rep.Attempted))
		for _, m := range perLayerMetrics {
			if _, ok := rep.Metrics[m.Name]; !ok {
				rep.Metrics[m.Name] = 0 // the workload does not call this layer
			}
		}
	}
	return rep, nil
}

// untracedRounds measures roundsPerSetup rounds on the current set-up
// and appends each round's values.
func untracedRounds(rep *report, w workload, round time.Duration) error {
	per := rep.Rounds
	for i := 0; i < roundsPerSetup; i++ {
		seg := runSegment(w, round, false)
		rep.Attempted += seg.ops
		rep.Failed += seg.failed
		if seg.ops == 0 {
			return fmt.Errorf("a round completed no operation")
		}
		ops := float64(seg.ops)
		per["window_p50_us"] = append(per["window_p50_us"], float64(seg.window.quantile(0.5))/1e3)
		per["window_p99_us"] = append(per["window_p99_us"], float64(seg.window.quantile(0.99))/1e3)
		per["ops_per_s"] = append(per["ops_per_s"], ops/seg.wall.Seconds())
		per["cpu_us_per_op"] = append(per["cpu_us_per_op"], float64(seg.proc.cpu)/1e3/ops)
		per["allocs_per_op"] = append(per["allocs_per_op"], float64(seg.proc.mallocs)/ops)
		per["host_steal_s"] = append(per["host_steal_s"], seg.proc.steal.Seconds())
	}
	return nil
}

func tracedRun(rep *report, w workload, seconds float64, outDir string) error {
	ref := runSegment(w, time.Duration(refShare*seconds*float64(time.Second)), false)
	traced := runSegment(w, time.Duration(tracedShare*seconds*float64(time.Second)), true)
	rep.Attempted += ref.ops + traced.ops
	rep.Failed += ref.failed + traced.failed
	if ref.ops == 0 || traced.ops == 0 {
		return fmt.Errorf("a segment completed no operation")
	}
	rep.set("proc.bytes_per_op", float64(traced.proc.bytes)/float64(traced.ops))
	rep.set("proc.gc_pause_ms", float64(traced.proc.gcPauseNS)/1e6)
	rep.set("trace.spans", float64(len(traced.spans)))
	rep.set("env.cpu_steal_ratio", (ref.proc.steal+traced.proc.steal).Seconds()/(ref.wall+traced.wall).Seconds())
	refRate := float64(ref.ops) / ref.wall.Seconds()
	tracedRate := float64(traced.ops) / traced.wall.Seconds()
	rep.set("trace.overhead_ratio", tracedRate/refRate)
	rep.note("traced run: %d ops in %.2f s with %d spans; reference run with tracing off: %d ops in %.2f s; trace.overhead_ratio %.4f (traced / untraced ops per second)",
		traced.ops, traced.wall.Seconds(), len(traced.spans), ref.ops, ref.wall.Seconds(), tracedRate/refRate)
	if err := w.layers(rep, ref, traced); err != nil {
		return fmt.Errorf("per-layer metrics: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(outDir, "trace-"+rep.Workload+".jsonl"), traced.spans)
}

// budgetLine is one layer's share in a reconciliation row.
type budgetLine struct {
	what string
	us   float64
}

// reconcile writes the row "end-to-end p50 = sum of layer p50s +
// trace.unexplained_us". What is left unexplained is loopback, system
// calls, scheduling and whatever the server does that has no public
// function to call: the gap in-server stage timers will have to close.
func reconcile(r *report, metric string, e2eUS float64, parts []budgetLine) {
	var sum float64
	for _, p := range parts {
		sum += p.us
	}
	r.set("trace.unexplained_us", e2eUS-sum)
	r.note("reconciliation: %s %.2f us = layers %.2f us + trace.unexplained_us %.2f us", metric, e2eUS, sum, e2eUS-sum)
	for _, p := range parts {
		r.note("    %8.2f us  %s", p.us, p.what)
	}
}

func unitOf(name string) string {
	for _, m := range endToEndMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// resultLine is the one JSON object the driver reads from the last line.
func resultLine(rep *report) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for name, v := range rep.Metrics {
		metrics[name] = mv{v, unitOf(name)}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func printReport(rep *report) {
	mode := "tracing off, end-to-end metrics"
	if rep.Trace {
		mode = "traced run and probes, per-layer metrics"
	}
	fmt.Printf("== %s  seed %d  %g s  %s\n", rep.Workload, rep.Seed, rep.Seconds, mode)
	fmt.Printf("   closed loop, %d session(s) in this process (GOMAXPROCS %d), plain host loopback, no netcond\n", rep.Sessions, runtime.GOMAXPROCS(0))
	fmt.Printf("   input_digest %s  decision_digest %s\n", rep.InputDigest, rep.DecisionDigest)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("   %-44s %14.4f %-6s", n, rep.Metrics[n], unitOf(n))
		if vals := rep.Rounds[n]; n == "setup_s" {
			lo, hi := minMax(vals)
			line += fmt.Sprintf("  (median of %d; min %.4f, max %.4f)", len(vals), lo, hi)
		} else if len(vals) > 0 {
			lo, hi := minMax(vals)
			line += fmt.Sprintf("  (best quarter of %d; median %.4f, min %.4f, max %.4f)", len(vals), median(vals), lo, hi)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	for _, n := range rep.Notes {
		fmt.Println("   " + n)
	}
	fmt.Printf("   correct %v: %d attempted, %d failed\n", rep.Correct, rep.Attempted, rep.Failed)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
