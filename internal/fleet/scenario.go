// Package fleet is the fleet-scale load harness: it drives an
// Authentication Server (or an in-process cluster) with synthetic users
// generated from internal/sensing, mixing enroll / authenticate / train /
// mimicry-attack traffic according to declarative scenario profiles, and
// reports per-op latency histograms, throughput, error/redirect/busy
// counts, and SLO pass/fail. Scenario traffic is routed through
// internal/netcond, so a profile pins not just the workload mix but the
// network the fleet lives on — a flaky Bluetooth watch link, a WAN
// follower, an attack campaign — as one reproducible, seeded unit.
//
// The same scenario files feed cmd/loadgen (full scale, refreshing
// BENCH_fleet.json) and the scenario regression suite (scaled down,
// under `go test -race`).
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"smarteryou/internal/netcond"
)

// Mix is the op mix of a scenario, as relative weights (they need not sum
// to 1; zero weights disable the op).
type Mix struct {
	// Authenticate scores one genuine window for a scored-cohort user.
	Authenticate float64 `json:"authenticate"`
	// Enroll uploads windows for a fresh fleet user (fleet growth).
	Enroll float64 `json:"enroll,omitempty"`
	// Reenroll replaces a cohort user's stored windows with their most
	// recent behaviour — the paper's retraining upload (Section V-I).
	Reenroll float64 `json:"reenroll,omitempty"`
	// Train asks the server to (re)train a cohort user's model.
	Train float64 `json:"train,omitempty"`
	// Mimicry scores a mimicry-attack window against a cohort user's
	// model (internal/attack's masquerade, driven over the wire).
	Mimicry float64 `json:"mimicry,omitempty"`
	// Batch scores a burst of BatchWindows genuine windows for one cohort
	// user in a single round trip (the envelope-v2 batch op). Its latency
	// is recorded per window (burst time / windows), so it compares
	// directly against the authenticate op.
	Batch float64 `json:"batch,omitempty"`
	// Stream opens a streaming session for a cohort user, pushes
	// StreamWindows genuine windows through it and closes it. Latency is
	// per window, handshake and close included.
	Stream float64 `json:"stream,omitempty"`
}

// total sums the weights.
func (m Mix) total() float64 {
	return m.Authenticate + m.Enroll + m.Reenroll + m.Train + m.Mimicry + m.Batch + m.Stream
}

// RetrainKnobs is the scenario's view of the server-side drift-retrain
// subsystem; nil leaves it disabled.
type RetrainKnobs struct {
	// Threshold is epsilon_CS (paper Section V-I).
	Threshold float64 `json:"threshold"`
	// MinWindows gates candidates on accumulated observations.
	MinWindows int `json:"min_windows,omitempty"`
	// CooldownSeconds spaces retrains of one user.
	CooldownSeconds float64 `json:"cooldown_seconds,omitempty"`
	// Budget bounds concurrent scheduled retrains.
	Budget int `json:"budget,omitempty"`
	// RecentWindows is the per-class sample budget of scheduled retrains.
	RecentWindows int `json:"recent_windows,omitempty"`
}

// SLO is the pass/fail contract a scenario is held to.
type SLO struct {
	// AuthP99Ms bounds the authenticate p99 latency (0 skips the check).
	AuthP99Ms float64 `json:"auth_p99_ms,omitempty"`
	// EnrollP99Ms bounds the enroll p99 latency.
	EnrollP99Ms float64 `json:"enroll_p99_ms,omitempty"`
	// TrainP99Ms bounds the train p99 latency (busy retries included).
	TrainP99Ms float64 `json:"train_p99_ms,omitempty"`
	// BatchP99Ms bounds the batch op's per-window p99 latency (the burst
	// round trip divided by its window count).
	BatchP99Ms float64 `json:"batch_p99_ms,omitempty"`
	// StreamP99Ms bounds the stream op's per-window p99 latency (session
	// handshake, pushed windows and close, divided by the window count).
	StreamP99Ms float64 `json:"stream_p99_ms,omitempty"`
	// MaxErrorRate bounds unexpected errors across all ops. Redirects and
	// busy responses are protocol outcomes, not errors.
	MaxErrorRate float64 `json:"max_error_rate"`
	// MinGenuineAccept floors the genuine-window accept fraction.
	MinGenuineAccept float64 `json:"min_genuine_accept,omitempty"`
	// MaxMimicAccept caps the mimicry-window accept fraction.
	MaxMimicAccept float64 `json:"max_mimic_accept,omitempty"`
	// MinRetrains floors the server's completed scheduled retrains
	// (drift scenarios assert the autonomous loop actually fired).
	MinRetrains int `json:"min_retrains,omitempty"`
}

// Cluster topologies a scenario can request.
const (
	// ClusterSingle is one read-write server.
	ClusterSingle = "single"
	// ClusterFollower is the two-node layout of the shard-ownership
	// cluster: node 0 owns every shard, node 1 owns none and replicates;
	// client traffic targets node 1 without shard routing, so writes
	// bounce through redirects — the WAN-replica shape — and FailoverAt
	// can kill the owner and have the replica take its shards over.
	ClusterFollower = "follower"
	// ClusterMulti is the three-node layout: every node is writable for
	// the shards it owns and redirects the rest, with a full replication
	// mesh keeping reads serveable anywhere. The third node starts outside
	// the ownership map so RebalanceAt can exercise a live
	// join-and-handoff mid-run.
	ClusterMulti = "cluster"
)

// Scenario is one declarative load profile. The JSON form is the file
// format shipped under scenarios/.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives every random choice in the run: template users, traffic
	// schedule, network conditioning. Same file, same numbers.
	Seed int64 `json:"seed"`
	// Users is the fleet size: the pool of distinct user identities the
	// run enrolls from.
	Users int `json:"users"`
	// ScoredUsers is the cohort enrolled AND trained during the stage
	// phase; authenticate/mimicry ops target it (a model must exist to
	// score against). Default min(Users, 64).
	ScoredUsers int `json:"scored_users,omitempty"`
	// TemplateUsers sizes the behavioural template pool fleet identities
	// are cloned from; synthesis cost scales with it, fleet size does
	// not. Default 10.
	TemplateUsers int `json:"template_users,omitempty"`
	// DurationSeconds is the modeled steady-state span: with the paper's
	// 6 s authentication cadence, the op budget is
	// Users × DurationSeconds / cadence.
	DurationSeconds float64 `json:"duration_seconds"`
	// AuthCadenceSeconds overrides the 6 s cadence.
	AuthCadenceSeconds float64 `json:"auth_cadence_seconds,omitempty"`
	// Workers is the number of concurrent load connections (default 16).
	Workers int `json:"workers,omitempty"`
	// BatchWindows sizes each batch op's burst (default 16).
	BatchWindows int `json:"batch_windows,omitempty"`
	// StreamWindows is how many windows each stream op pushes through its
	// session before closing it (default 32).
	StreamWindows int `json:"stream_windows,omitempty"`
	// Mix weights the op types.
	Mix Mix `json:"mix"`
	// Network conditions every client flow (zero = perfect loopback).
	Network netcond.Config `json:"network"`
	// Cluster selects the topology ("single" default, "follower" or
	// "cluster").
	Cluster string `json:"cluster,omitempty"`
	// FailoverAt, in (0,1), kills the shard owner when that fraction of
	// the steady-phase ops has completed and has the replica take its
	// shards over. Only meaningful with the follower topology.
	FailoverAt float64 `json:"failover_at,omitempty"`
	// RebalanceAt, in (0,1), joins the spare node into the ownership map
	// when that fraction of the steady-phase ops has completed and hands
	// it a balanced share of shards with a live handoff. Only meaningful
	// with the multi-node cluster topology.
	RebalanceAt float64 `json:"rebalance_at,omitempty"`
	// DriftDays spreads the genuine authentication windows over this many
	// days of behavioural drift; traffic presents them in day order, so
	// the fleet's behaviour decays as the run progresses.
	DriftDays float64 `json:"drift_days,omitempty"`
	// MimicFidelity is the attacker's imitation fidelity (default 0.9,
	// Section V-G's studied-from-video attacker).
	MimicFidelity float64 `json:"mimic_fidelity,omitempty"`
	// Retrain enables the server's drift-retrain subsystem.
	Retrain *RetrainKnobs `json:"retrain,omitempty"`
	// SLO is evaluated over the run's report.
	SLO SLO `json:"slo"`
}

// Defaults used when scenario fields are zero.
const (
	defaultScoredUsers   = 64
	defaultTemplateUsers = 10
	defaultAuthCadence   = 6.0
	defaultWorkers       = 16
	defaultBatchWindows  = 16
	defaultStreamWindows = 32
)

// withDefaults resolves the zero-value knobs.
func (s Scenario) withDefaults() Scenario {
	if s.ScoredUsers == 0 {
		s.ScoredUsers = defaultScoredUsers
	}
	if s.ScoredUsers > s.Users {
		s.ScoredUsers = s.Users
	}
	if s.TemplateUsers == 0 {
		s.TemplateUsers = defaultTemplateUsers
	}
	if s.AuthCadenceSeconds == 0 {
		s.AuthCadenceSeconds = defaultAuthCadence
	}
	if s.Workers == 0 {
		s.Workers = defaultWorkers
	}
	if s.BatchWindows == 0 {
		s.BatchWindows = defaultBatchWindows
	}
	if s.StreamWindows == 0 {
		s.StreamWindows = defaultStreamWindows
	}
	if s.Cluster == "" {
		s.Cluster = ClusterSingle
	}
	if s.MimicFidelity == 0 {
		s.MimicFidelity = 0.9
	}
	return s
}

// Validate rejects scenarios that cannot run.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("fleet: scenario needs a name")
	}
	if s.Users <= 0 {
		return fmt.Errorf("fleet: scenario %s: users must be positive, got %d", s.Name, s.Users)
	}
	if s.ScoredUsers < 0 || s.TemplateUsers < 0 || s.Workers < 0 {
		return fmt.Errorf("fleet: scenario %s: negative sizing knob", s.Name)
	}
	if s.DurationSeconds <= 0 {
		return fmt.Errorf("fleet: scenario %s: duration must be positive, got %g", s.Name, s.DurationSeconds)
	}
	if s.AuthCadenceSeconds < 0 || s.DriftDays < 0 {
		return fmt.Errorf("fleet: scenario %s: negative time knob", s.Name)
	}
	if s.Mix.total() <= 0 {
		return fmt.Errorf("fleet: scenario %s: op mix has no positive weights", s.Name)
	}
	if s.Mix.Authenticate < 0 || s.Mix.Enroll < 0 || s.Mix.Reenroll < 0 || s.Mix.Train < 0 || s.Mix.Mimicry < 0 || s.Mix.Batch < 0 || s.Mix.Stream < 0 {
		return fmt.Errorf("fleet: scenario %s: negative mix weight", s.Name)
	}
	if s.BatchWindows < 0 || s.StreamWindows < 0 {
		return fmt.Errorf("fleet: scenario %s: negative burst sizing knob", s.Name)
	}
	if s.MimicFidelity < 0 || s.MimicFidelity > 1 {
		return fmt.Errorf("fleet: scenario %s: mimic fidelity %g outside [0,1]", s.Name, s.MimicFidelity)
	}
	switch s.Cluster {
	case "", ClusterSingle, ClusterFollower, ClusterMulti:
	default:
		return fmt.Errorf("fleet: scenario %s: unknown cluster topology %q", s.Name, s.Cluster)
	}
	if s.FailoverAt != 0 && (s.FailoverAt <= 0 || s.FailoverAt >= 1) {
		return fmt.Errorf("fleet: scenario %s: failover_at %g outside (0,1)", s.Name, s.FailoverAt)
	}
	if s.FailoverAt > 0 && s.Cluster != ClusterFollower {
		return fmt.Errorf("fleet: scenario %s: failover_at needs the follower topology", s.Name)
	}
	if s.RebalanceAt != 0 && (s.RebalanceAt <= 0 || s.RebalanceAt >= 1) {
		return fmt.Errorf("fleet: scenario %s: rebalance_at %g outside (0,1)", s.Name, s.RebalanceAt)
	}
	if s.RebalanceAt > 0 && s.Cluster != ClusterMulti {
		return fmt.Errorf("fleet: scenario %s: rebalance_at needs the cluster topology", s.Name)
	}
	if err := s.Network.Validate(); err != nil {
		return fmt.Errorf("fleet: scenario %s: %w", s.Name, err)
	}
	if r := s.Retrain; r != nil {
		if r.Threshold <= 0 || r.Threshold >= 1 {
			return fmt.Errorf("fleet: scenario %s: retrain threshold %g outside (0,1)", s.Name, r.Threshold)
		}
		if r.MinWindows < 0 || r.Budget < 0 || r.RecentWindows < 0 || r.CooldownSeconds < 0 {
			return fmt.Errorf("fleet: scenario %s: negative retrain knob", s.Name)
		}
	}
	if s.SLO.MaxErrorRate < 0 || s.SLO.MaxErrorRate > 1 {
		return fmt.Errorf("fleet: scenario %s: max_error_rate %g outside [0,1]", s.Name, s.SLO.MaxErrorRate)
	}
	return nil
}

// Scaled returns a copy sized down (or up) to the given fleet size and
// modeled duration, shrinking the scored cohort and template pool
// proportionally (but never below a floor that keeps the workload
// meaningful). The acceptance suite runs every shipped profile through
// this with a small fleet; cmd/loadgen applies operator overrides the
// same way.
func (s Scenario) Scaled(users int, durationSeconds float64) Scenario {
	s = s.withDefaults()
	if users > 0 && users != s.Users {
		frac := float64(users) / float64(s.Users)
		s.Users = users
		scale := func(n int, floor int) int {
			v := int(float64(n) * frac)
			if v < floor {
				v = floor
			}
			return v
		}
		s.ScoredUsers = scale(s.ScoredUsers, 8)
		if s.ScoredUsers > users {
			s.ScoredUsers = users
		}
		s.TemplateUsers = scale(s.TemplateUsers, 5)
	}
	if durationSeconds > 0 {
		s.DurationSeconds = durationSeconds
	}
	return s
}

// SteadyOps is the steady-phase op budget: one op per user per cadence
// tick over the modeled duration.
func (s Scenario) SteadyOps() int {
	s = s.withDefaults()
	ops := int(float64(s.Users) * s.DurationSeconds / s.AuthCadenceSeconds)
	if ops < 1 {
		ops = 1
	}
	return ops
}

// RetrainCooldown converts the knob to a duration (default 30 s — the
// load harness wants retrains observable within a run, not spaced by the
// production half-hour).
func (r *RetrainKnobs) RetrainCooldown() time.Duration {
	if r == nil || r.CooldownSeconds <= 0 {
		return 30 * time.Second
	}
	return time.Duration(r.CooldownSeconds * float64(time.Second))
}

// ParseScenario decodes and validates one scenario document. Unknown
// fields are rejected so a typo in a profile fails loudly instead of
// silently running the default.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("fleet: parse scenario: %w", err)
	}
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// LoadScenario reads one scenario file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("fleet: %w", err)
	}
	s, err := ParseScenario(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// LoadDir loads every *.json scenario in a directory, sorted by name.
func LoadDir(dir string) ([]Scenario, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("fleet: no scenario files in %s", dir)
	}
	sort.Strings(paths)
	out := make([]Scenario, 0, len(paths))
	for _, p := range paths {
		s, err := LoadScenario(p)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
