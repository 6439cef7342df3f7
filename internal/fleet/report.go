package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"smarteryou/internal/netcond"
	"smarteryou/internal/transport"
)

// OpReport is the per-op-type slice of a load run.
type OpReport struct {
	// Latency digests the end-to-end op latency, including redirect hops,
	// busy backoff and transient-error retries — what a device perceives.
	Latency Summary `json:"latency"`
	// OK counts completed ops; Errors counts ops that exhausted their
	// retries on unexpected failures.
	OK     uint64 `json:"ok"`
	Errors uint64 `json:"errors,omitempty"`
	// Busy counts ops that ended on a busy response after client-side
	// backoff; Redirects counts shard-owner redirects followed mid-op.
	Busy      uint64 `json:"busy,omitempty"`
	Redirects uint64 `json:"redirects,omitempty"`
	// Accepted/Rejected split scoring ops (authenticate, mimicry) by the
	// server's decision.
	Accepted uint64 `json:"accepted,omitempty"`
	Rejected uint64 `json:"rejected,omitempty"`
	// ErrorSample is one representative error message, for triage.
	ErrorSample string `json:"error_sample,omitempty"`
}

// SLOResult is the scenario SLO verdict.
type SLOResult struct {
	Pass bool `json:"pass"`
	// Violations lists every failed clause, empty on pass.
	Violations []string `json:"violations,omitempty"`
}

// Report is one scenario run's published result — the unit of
// BENCH_fleet.json.
type Report struct {
	Scenario    string         `json:"scenario"`
	Description string         `json:"description,omitempty"`
	Seed        int64          `json:"seed"`
	Users       int            `json:"users"`
	ScoredUsers int            `json:"scored_users"`
	Workers     int            `json:"workers"`
	Cluster     string         `json:"cluster"`
	Network     netcond.Config `json:"network"`

	// StageSeconds is the cohort enroll+train provisioning time (not part
	// of the measured steady phase).
	StageSeconds float64 `json:"stage_seconds"`
	// WallSeconds is the measured steady-phase wall time; Throughput is
	// completed steady ops per second over it.
	WallSeconds float64 `json:"wall_seconds"`
	TotalOps    uint64  `json:"total_ops"`
	Throughput  float64 `json:"throughput_ops_per_sec"`

	// Ops breaks the run down per op type (authenticate, enroll, reenroll,
	// train, mimicry); only ops with traffic appear.
	Ops map[string]*OpReport `json:"ops"`

	// Errors/ErrorRate aggregate unexpected failures across op types.
	Errors    uint64  `json:"errors"`
	ErrorRate float64 `json:"error_rate"`
	Redirects uint64  `json:"redirects,omitempty"`
	Busy      uint64  `json:"busy,omitempty"`

	// GenuineAccept and MimicAccept are the run's security outcomes: the
	// accept fraction over genuine authenticate ops and over mimicry ops.
	GenuineAccept float64 `json:"genuine_accept,omitempty"`
	MimicAccept   float64 `json:"mimic_accept"`

	// FailoverTookMs is the owner-kill-to-takeover transition time when
	// the scenario exercised failover.
	FailoverTookMs float64 `json:"failover_took_ms,omitempty"`

	// RebalanceTookMs is the join-to-new-map transition time when the
	// scenario rebalanced shard ownership onto a spare node mid-run.
	RebalanceTookMs float64 `json:"rebalance_took_ms,omitempty"`

	// Retrain is the server's drift-retrain subsystem state after the run,
	// when enabled.
	Retrain *transport.RetrainStats `json:"retrain,omitempty"`

	// Enrolled lists the fresh fleet users whose enroll op completed, when
	// the runner was asked to track them (acceptance tests assert none are
	// lost across a failover).
	Enrolled []string `json:"-"`

	SLO SLOResult `json:"slo"`
}

// round4 keeps the JSON compact.
func round4(v float64) float64 { return math.Round(v*10000) / 10000 }

// EvaluateSLO checks the report against the scenario's SLO and stores the
// verdict on the report.
func (r *Report) EvaluateSLO(slo SLO) {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	checkP99 := func(op string, bound float64) {
		if bound <= 0 {
			return
		}
		if o := r.Ops[op]; o != nil && o.Latency.Count > 0 && o.Latency.P99Ms > bound {
			fail("%s p99 %.3fms > %.3fms", op, o.Latency.P99Ms, bound)
		}
	}
	checkP99("authenticate", slo.AuthP99Ms)
	checkP99("enroll", slo.EnrollP99Ms)
	checkP99("train", slo.TrainP99Ms)
	// Batch and stream record per-window latency, so these bounds read as
	// "amortized per-window p99" and compare directly with auth_p99_ms.
	checkP99("batch", slo.BatchP99Ms)
	checkP99("stream", slo.StreamP99Ms)

	if r.ErrorRate > slo.MaxErrorRate {
		fail("error rate %.4f > %.4f", r.ErrorRate, slo.MaxErrorRate)
	}
	if slo.MinGenuineAccept > 0 {
		scored := uint64(0)
		for _, op := range [...]string{"authenticate", "batch", "stream"} {
			if o := r.Ops[op]; o != nil {
				scored += o.Accepted + o.Rejected
			}
		}
		if scored > 0 && r.GenuineAccept < slo.MinGenuineAccept {
			fail("genuine accept %.4f < %.4f", r.GenuineAccept, slo.MinGenuineAccept)
		}
	}
	if slo.MaxMimicAccept > 0 {
		if mim := r.Ops["mimicry"]; mim != nil && mim.Accepted+mim.Rejected > 0 && r.MimicAccept > slo.MaxMimicAccept {
			fail("mimic accept %.4f > %.4f", r.MimicAccept, slo.MaxMimicAccept)
		}
	}
	if slo.MinRetrains > 0 {
		completed := 0
		if r.Retrain != nil {
			completed = int(r.Retrain.Completed)
		}
		if completed < slo.MinRetrains {
			fail("scheduled retrains %d < %d", completed, slo.MinRetrains)
		}
	}
	r.SLO = SLOResult{Pass: len(v) == 0, Violations: v}
}

// BenchFile is the BENCH_fleet.json document: every scenario's report
// plus a fleet-wide verdict.
type BenchFile struct {
	// Harness pins the producing command for provenance.
	Harness   string   `json:"harness"`
	Pass      bool     `json:"pass"`
	Scenarios []Report `json:"scenarios"`
}

// WriteBench writes the reports as BENCH_fleet.json-style output,
// atomically (temp file + rename).
func WriteBench(path string, reports []Report) error {
	bf := BenchFile{Harness: "cmd/loadgen", Pass: true, Scenarios: reports}
	for _, r := range reports {
		if !r.SLO.Pass {
			bf.Pass = false
		}
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: encode bench: %w", err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), ".bench-*")
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("fleet: write bench: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("fleet: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("fleet: %w", err)
	}
	return nil
}
