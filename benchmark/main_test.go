package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every workload runs for about 200 ms in each mode, passes its own
// correctness checks, and emits exactly the metrics BENCHMARK.json
// promises for that mode.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and fsyncs; skipped with -short")
	}
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			def, trace := def, trace
			name := def.Name + "/end-to-end"
			want := endToEndMetrics
			if trace {
				name, want = def.Name+"/per-layer", perLayerMetrics
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				rep, err := runOne(def, 7, 0.2, trace, 1, out)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d\n%v", rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
				}
				if rep.InputDigest == "" || rep.DecisionDigest == "" {
					t.Errorf("digests missing: input %q decision %q", rep.InputDigest, rep.DecisionDigest)
				}
				for _, m := range want {
					v, ok := rep.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					}
					if !trace && v <= 0 {
						t.Errorf("end-to-end metric %s is %g; it must never be 0", m.Name, v)
					}
				}
				if len(rep.Metrics) != len(want) {
					known := map[string]bool{}
					for _, m := range want {
						known[m.Name] = true
					}
					for n := range rep.Metrics {
						if !known[n] {
							t.Errorf("metric %s emitted but not in BENCHMARK.json for this mode", n)
						}
					}
				}

				var line struct {
					Correct   *bool `json:"correct"`
					Attempted *int64
					Failed    *int64
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				dec := json.NewDecoder(strings.NewReader(resultLine(rep)))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
					t.Errorf("result line lacks a key or a metric: %s", resultLine(rep))
				}
				for n, m := range line.Metrics {
					if m.Value == nil || m.Unit == "" {
						t.Errorf("result line metric %s lacks value or unit", n)
					}
				}

				if trace {
					st, err := os.Stat(filepath.Join(out, "trace-"+def.Name+".jsonl"))
					if err != nil || st.Size() == 0 {
						t.Errorf("no trace written: %v", err)
					}
				}
				if left, _ := filepath.Glob(filepath.Join(out, "data", "*")); len(left) != 0 {
					t.Errorf("scratch data left behind: %v", left)
				}
			})
		}
	}
}

// What separates the workloads must show in the numbers, not only in
// their descriptions.
func TestWorkloadsStressDifferentLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and fsyncs; skipped with -short")
	}
	layer := func(name string) map[string]float64 {
		def, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runOne(def, 7, 0.4, true, 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Metrics
	}
	device, single, write := layer("device-continuous"), layer("cloud-auth-single"), layer("cloud-write-replicated")
	if device["features.extract_us"] <= 0 || device["dsp.calls_per_window"] != 4 {
		t.Errorf("device-continuous does not show features and dsp at work: %v", device)
	}
	for _, m := range []string{"features.extract_us", "dsp.spectrum_us", "dsp.calls_per_window", "store.fsync_wait_us", "enroll_p50_us"} {
		if single[m] != 0 {
			t.Errorf("cloud-auth-single reports %s = %g; it never calls that layer", m, single[m])
		}
	}
	for _, m := range []string{"transport.auth_rtt_p50_us", "store.enroll_us"} {
		if device[m] != 0 {
			t.Errorf("device-continuous reports %s = %g; it has no network and no store", m, device[m])
		}
	}
	if write["store.fsync_wait_us"] <= 0 || write["enroll_p50_us"] <= 0 || write["store.enroll_us"] <= write["store.enroll_nosync_us"] {
		t.Errorf("cloud-write-replicated does not show the store and the device at work: %v", write)
	}
}
