package main

import "fmt"

// metricDef is one row of BENCHMARK.json. The consistency test keeps the
// file and these tables identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse; per-layer metrics have none.
	Bound float64
}

// An "op" is one window decision on device-continuous, cloud-auth-single
// and cloud-auth-stream, and one acknowledged request of any verb on
// cloud-write-replicated. Every end-to-end metric is emitted by every
// workload (the driver's contract), which is why the write-path figures
// that only cloud-write-replicated has are per-layer metrics below.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"window_p50_us", "us", "lower", 0.20},
	{"window_p99_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"cpu_us_per_op", "us", "lower", 0.20},
	{"allocs_per_op", "count", "lower", 0.05},
	{"rss_peak_mb", "MB", "lower", 0.15},
}

var perLayerMetrics = []metricDef{
	// dsp
	{Name: "dsp.spectrum_us", Unit: "us", Better: "lower"},
	{Name: "dsp.spectrum_allocs", Unit: "count", Better: "lower"},
	{Name: "dsp.prep_us", Unit: "us", Better: "lower"},
	{Name: "dsp.calls_per_window", Unit: "count", Better: "lower"},
	// features
	{Name: "features.extract_us", Unit: "us", Better: "lower"},
	{Name: "features.extract_allocs", Unit: "count", Better: "lower"},
	{Name: "features.self_us", Unit: "us", Better: "lower"},
	{Name: "features.codec_ns", Unit: "ns", Better: "lower"},
	{Name: "features.window_bytes", Unit: "bytes", Better: "lower"},
	// ctxdetect
	{Name: "ctxdetect.detect_ns", Unit: "ns", Better: "lower"},
	// core
	{Name: "core.score_ns", Unit: "ns", Better: "lower"},
	{Name: "core.score_allocs", Unit: "count", Better: "lower"},
	{Name: "core.batch_score_ns", Unit: "ns", Better: "lower"},
	{Name: "core.train_ms", Unit: "ms", Better: "lower"},
	{Name: "core.bundle_marshal_us", Unit: "us", Better: "lower"},
	{Name: "core.bundle_bytes", Unit: "bytes", Better: "lower"},
	// ml
	{Name: "ml.krr_train_us", Unit: "us", Better: "lower"},
	// retrain
	{Name: "retrain.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "retrain.completed", Unit: "count", Better: "lower"},
	// transport
	{Name: "transport.auth_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.auth_rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "transport.batch16_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.stream_window_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.stream_open_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.enroll_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.reenroll_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.train_rtt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.train_rtt_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.fetch_model_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.fetch_model_unchanged_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.envelope_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.frame_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.tx_bytes_per_window", Unit: "bytes", Better: "lower"},
	{Name: "transport.rx_bytes_per_window", Unit: "bytes", Better: "lower"},
	{Name: "transport.conn_writes_per_window", Unit: "count", Better: "lower"},
	{Name: "transport.conn_reads_per_window", Unit: "count", Better: "lower"},
	{Name: "transport.busy", Unit: "count", Better: "lower"},
	{Name: "transport.redirects", Unit: "count", Better: "lower"},
	{Name: "transport.retries", Unit: "count", Better: "lower"},
	{Name: "transport.server_v2_requests", Unit: "count", Better: "higher"},
	{Name: "transport.server_batch_windows", Unit: "count", Better: "higher"},
	{Name: "transport.server_stream_windows", Unit: "count", Better: "higher"},
	// store
	{Name: "store.enroll_us", Unit: "us", Better: "lower"},
	{Name: "store.enroll_nosync_us", Unit: "us", Better: "lower"},
	{Name: "store.fsync_wait_us", Unit: "us", Better: "lower"},
	{Name: "store.wal_bytes_per_window", Unit: "bytes", Better: "lower"},
	{Name: "store.publish_model_us", Unit: "us", Better: "lower"},
	{Name: "store.latest_model_us", Unit: "us", Better: "lower"},
	{Name: "store.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.recovery_replayed", Unit: "count", Better: "lower"},
	// cas
	{Name: "cas.put_us", Unit: "us", Better: "lower"},
	{Name: "cas.disk_bytes", Unit: "bytes", Better: "lower"},
	{Name: "cas.disk_chunks", Unit: "count", Better: "lower"},
	{Name: "cas.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cas.sweep_ms", Unit: "ms", Better: "lower"},
	// replication
	{Name: "replication.lag_records_p50", Unit: "count", Better: "lower"},
	{Name: "replication.cold_catchup_ms", Unit: "ms", Better: "lower"},
	{Name: "replication.delta_catchup_bytes", Unit: "bytes", Better: "lower"},
	{Name: "replication.full_catchup_bytes", Unit: "bytes", Better: "lower"},
	{Name: "replication.delta_saved_bytes", Unit: "bytes", Better: "higher"},
	// the write path as its user sees it (cloud-write-replicated only)
	{Name: "enroll_p50_us", Unit: "us", Better: "lower"},
	{Name: "enroll_p99_us", Unit: "us", Better: "lower"},
	{Name: "train_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "writes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "converge_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "disk_bytes_per_window", Unit: "bytes", Better: "lower"},
	{Name: "acked_lost", Unit: "count", Better: "lower"},
	// process and trace
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "proc.bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "env.fsync_probe_us", Unit: "us", Better: "lower"},
	{Name: "env.cpu_steal_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.unexplained_us", Unit: "us", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
}

// workloadDef names a workload and says why it is there.
type workloadDef struct {
	Name string
	Why  string
	make func() workload
}

var workloads = []workloadDef{
	{"device-continuous", "on-phone continuous mode: features+dsp do nearly all the work, transport and store none", func() workload { return &deviceWorkload{} }},
	{"cloud-auth-single", "one window per v2 request on kept-alive sessions: per-request envelope, HMAC and dispatch cost dominates", func() workload { return &authWorkload{} }},
	{"cloud-auth-stream", "same server, windows in stream and batch bursts: per-request cost amortised, per-window codec and scoring dominate", func() workload { return &authWorkload{bursts: true} }},
	{"cloud-write-replicated", "durable enroll, reenroll and train beside reads, with a live follower: store, cas, training and replication do the work", func() workload { return &writeWorkload{} }},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// report is what one run of one workload produced.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Sessions  int                `json:"sessions"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Rounds holds the per-round values behind each end-to-end metric.
	Rounds         map[string][]float64 `json:"rounds,omitempty"`
	InputDigest    string               `json:"input_digest"`
	DecisionDigest string               `json:"decision_digest"`
	Notes          []string             `json:"notes,omitempty"`
}

func (r *report) set(name string, v float64) { r.Metrics[name] = v }

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}
