package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json, which has exactly these keys.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonEndToEnd `json:"end_to_end"`
	PerLayer   []jsonPerLayer `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var writeBenchmarkJSON = flag.Bool("write-benchmark-json", false, "rewrite ../BENCHMARK.json from the tables in metrics.go")

func fromTables() benchmarkJSON {
	var b benchmarkJSON
	b.Command = []string{"bash", "benchmark/run.sh"}
	b.Paths = []string{"benchmark"}
	b.RunSeconds = 20
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{w.Name, w.Why})
	}
	for _, m := range endToEndMetrics {
		b.EndToEnd = append(b.EndToEnd, jsonEndToEnd{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerMetrics {
		b.PerLayer = append(b.PerLayer, jsonPerLayer{m.Name, m.Unit, m.Better})
	}
	return b
}

// BENCHMARK.json and the tables in metrics.go must name the same
// workloads and metrics, within the limits the file format sets.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want := fromTables()
	if *writeBenchmarkJSON {
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("BENCHMARK.json differs from the tables in metrics.go; run: go test -run TestBenchmarkJSONMatchesTables -write-benchmark-json\n got %s\nwant %s", gotJSON, wantJSON)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, '_', '.' and '-'", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", got.RunSeconds)
	}
	for _, w := range got.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range got.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error(`no end-to-end metric "setup_s" with unit "s" and better "lower"`)
	}
	for _, m := range got.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
}
