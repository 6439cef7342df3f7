package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostStamp says where and on what a set of results was measured.
type hostStamp struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPUModel     string  `json:"cpu_model"`
	FsyncProbeUS float64 `json:"env.fsync_probe_us"`
}

func stampHost(outDir string) hostStamp {
	st := hostStamp{
		Commit: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				st.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
		f.Close()
	}
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		st.FsyncProbeUS, _ = fsyncProbeUS(outDir, 50)
	}
	return st
}

// quartiles are Python's statistics.quantiles(values, n=4), which is how
// the driver computes the spread it accepts or rejects.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// suite runs every workload, each run in a child process of its own so
// that set-up time, peak memory and allocation counts do not bleed from
// one workload into the next.
func suite(seed int64, seconds float64, repeat int, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	stamp := stampHost(outDir)
	fmt.Printf("host: commit %s, %s, nproc %d, GOMAXPROCS %d, %s, fsync probe %.1f us\n",
		stamp.Commit, stamp.GoVersion, stamp.NumCPU, stamp.GOMAXPROCS, stamp.CPUModel, stamp.FsyncProbeUS)
	var runs []*report
	failed := false
	for i := 0; i < repeat; i++ {
		for _, def := range workloads {
			for trace := 0; trace <= 1; trace++ {
				if trace == 1 && i > 0 {
					continue // the spread table is about end-to-end metrics
				}
				cmd := exec.Command(exe,
					"-workload", def.Name, "-seed", strconv.FormatInt(seed+int64(i), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
					"-trace", strconv.Itoa(trace), "-out", outDir)
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				runErr := cmd.Run()
				// everything but the machine-readable last line
				text := strings.TrimRight(stdout.String(), "\n")
				if cut := strings.LastIndexByte(text, '\n'); cut >= 0 {
					fmt.Println(text[:cut])
				}
				if runErr != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d) failed: %v\n", def.Name, trace, runErr)
					failed = true
					continue
				}
				var rep report
				b, err := os.ReadFile(filepath.Join(outDir, reportFile(def.Name, trace == 1)))
				if err == nil {
					err = json.Unmarshal(b, &rep)
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					failed = true
					continue
				}
				runs = append(runs, &rep)
			}
		}
	}

	type row struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Unit     string    `json:"unit"`
		Values   []float64 `json:"values"`
		Median   float64   `json:"median"`
		Min      float64   `json:"min"`
		Max      float64   `json:"max"`
		// SpreadIQR is (Q3-Q1)/median, the driver's measure; SpreadRange
		// is (max-min)/median.
		SpreadIQR   float64 `json:"spread_iqr"`
		SpreadRange float64 `json:"spread_range"`
		Bound       float64 `json:"bound"`
	}
	var table []row
	fmt.Printf("\n%-24s %-16s %14s %-6s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "unit", "min", "max", "iqr/med", "rng/med", "bound")
	for _, def := range workloads {
		for _, m := range endToEndMetrics {
			var vals []float64
			for _, r := range runs {
				if r.Workload == def.Name && !r.Trace {
					vals = append(vals, r.Metrics[m.Name])
				}
			}
			if len(vals) == 0 {
				continue
			}
			q1, _, q3 := quartiles(vals)
			lo, hi := minMax(vals)
			med := median(vals)
			rw := row{def.Name, m.Name, m.Unit, vals, med, lo, hi, (q3 - q1) / med, (hi - lo) / med, m.Bound}
			table = append(table, rw)
			fmt.Printf("%-24s %-16s %14.4f %-6s %12.4f %12.4f %7.1f%% %7.1f%% %5.0f%%\n",
				rw.Workload, rw.Metric, rw.Median, rw.Unit, rw.Min, rw.Max, 100*rw.SpreadIQR, 100*rw.SpreadRange, 100*rw.Bound)
		}
	}
	if repeat == 1 {
		fmt.Println("(one run per workload: spreads need -repeat N)")
	}
	results := struct {
		Host    hostStamp `json:"host"`
		Seed    int64     `json:"seed"`
		Seconds float64   `json:"seconds"`
		Repeat  int       `json:"repeat"`
		Table   []row     `json:"end_to_end"`
		Runs    []*report `json:"runs"`
	}{stamp, seed, seconds, repeat, table, runs}
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, results); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("wrote", path)
	for _, r := range runs {
		if !r.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s (trace %v): %d of %d checks and operations failed\n", r.Workload, r.Trace, r.Failed, r.Attempted)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}
