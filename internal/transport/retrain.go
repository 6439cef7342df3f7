// Drift-triggered retraining wiring: the transport server owns the glue
// between the retrain subsystem (internal/retrain) and everything it
// needs — authenticate decisions feed the monitor, candidates feed the
// scheduler, scheduled retrains run through the bounded training pool,
// and monitor snapshots checkpoint into the store registry so drift
// state survives restarts. A cluster node observes drift for every user
// it authenticates but schedules only those whose shard it owns; a node
// that takes a shard over starts scheduling from its own observed state.
package transport

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
	"time"

	"smarteryou/internal/core"
	"smarteryou/internal/retrain"
	"smarteryou/internal/store"
)

// retrainRequest nudges the scheduler to consider one user now.
type retrainRequest struct {
	UserID string `json:"user_id"`
}

// driftStateRequest asks for drift-monitor state: one user's (UserID
// set), or the most-drifted slice of the population (UserID empty,
// Limit entries, ascending EWMA — lowest confidence first).
type driftStateRequest struct {
	UserID string `json:"user_id,omitempty"`
	Limit  int    `json:"limit,omitempty"`
}

// DriftStateEntry is one user's drift-monitor state as served to
// clients: the confidence EWMA the retrain trigger watches and how stale
// the serving model is.
type DriftStateEntry struct {
	// User is the anonymized pseudonym (clients asking for a specific
	// user get their own pseudonym back).
	User string `json:"user"`
	// EWMA is the smoothed confidence score; drift pushes it down toward
	// the retrain threshold.
	EWMA float64 `json:"ewma"`
	// Windows counts authenticated windows since the last (re)train.
	Windows uint64 `json:"windows"`
	// LastTrainAgeSeconds is how long ago the user's model was trained.
	LastTrainAgeSeconds float64 `json:"last_train_age_seconds"`
}

// driftStateResponse carries the requested drift states.
type driftStateResponse struct {
	States []DriftStateEntry `json:"states,omitempty"`
}

// retrainResponse reports what the scheduler did with the nudge.
type retrainResponse struct {
	// Queued is true when the user entered (or was already in) the
	// scheduler's queue.
	Queued bool `json:"queued"`
	// Reason explains a not-freshly-queued outcome: "coalesced" or
	// "cooldown".
	Reason string `json:"reason,omitempty"`
}

// RetrainStats is the drift-retraining slice of the stats response.
type RetrainStats struct {
	// Monitored is how many users have drift state.
	Monitored int `json:"monitored"`
	// Queued and InFlight describe the scheduler right now.
	Queued   int `json:"queued"`
	InFlight int `json:"in_flight"`
	// Candidates counts every candidate the monitor emitted; Coalesced,
	// CooldownSkips and QueueDrops count the ones absorbed before
	// dispatch.
	Candidates    uint64 `json:"candidates"`
	Coalesced     uint64 `json:"coalesced"`
	CooldownSkips uint64 `json:"cooldown_skips"`
	QueueDrops    uint64 `json:"queue_drops"`
	// BudgetRejected counts dispatches the training pool refused.
	BudgetRejected uint64 `json:"budget_rejected"`
	// Completed counts finished scheduled retrains, Failures the errored
	// ones.
	Completed uint64 `json:"completed"`
	Failures  uint64 `json:"failures"`
	// Deferred counts candidates left for the user's shard owner.
	Deferred uint64 `json:"deferred,omitempty"`
	// Flushes counts drift-state checkpoints written to the registry.
	Flushes uint64 `json:"flushes,omitempty"`
}

// driftLoop bundles the server's retrain subsystem state.
type driftLoop struct {
	cfg     retrain.Config
	monitor *retrain.Monitor
	sched   *retrain.Scheduler

	// deferred counts candidates observed for users another node owns.
	deferred atomic.Uint64
	// flushes counts persisted monitor checkpoints; obsSince counts
	// observations since the last one.
	flushes  atomic.Uint64
	obsSince atomic.Int64
	// flushCh wakes the flusher goroutine; flushDone closes when it exits.
	flushCh   chan struct{}
	flushDone chan struct{}
}

// startDrift builds the drift monitor + scheduler. Called from NewServer
// after the training pool exists; restores any persisted drift state so
// a restart does not reset accumulated drift.
//
// On a cluster node the configured Budget is the *cluster-wide* retrain
// concurrency: each node takes the slice proportional to the shards it
// owns (minimum 1), so N nodes together still run at most ~Budget
// scheduled retrains, instead of N×Budget. The slice is derived from
// ownership at startup; a rebalance re-partitions it on the next server
// restart, not live (the scheduler's budget is its goroutine count) — so
// a node that owned nothing at start keeps budget 1 after a takeover
// until it is restarted.
func (s *Server) startDrift(cfg retrain.Config) {
	d := &driftLoop{cfg: cfg.WithDefaults()}
	if s.router != nil {
		if owned, total := s.router.OwnedShards(); total > 0 {
			scaled := d.cfg.Budget * owned / total
			if scaled < 1 {
				scaled = 1
			}
			s.logf("retrain budget partitioned: %d of %d (own %d/%d shards)", scaled, d.cfg.Budget, owned, total)
			d.cfg.Budget = scaled
		}
	}
	d.monitor = retrain.NewMonitor(d.cfg)
	// Only store.ErrNoModel means no checkpoint was ever written. A
	// checkpoint that cannot be read or decoded is logged and dropped
	// rather than refusing to serve: drift state is reconstructible from
	// traffic.
	blob, err := s.persist.LatestDriftState()
	var states map[string]retrain.UserState
	if err == nil {
		states, err = retrain.DecodeStates(blob)
	}
	switch {
	case err == nil:
		d.monitor.Restore(states)
		s.logf("restored drift state for %d users", len(states))
	case !errors.Is(err, store.ErrNoModel):
		s.logf("drift state checkpoint unreadable, starting fresh: %v", err)
	}
	d.flushCh = make(chan struct{}, 1)
	d.flushDone = make(chan struct{})
	d.sched = retrain.NewScheduler(d.cfg, s.runScheduledRetrain)
	s.drift = d
	go func() {
		defer close(d.flushDone)
		for range d.flushCh {
			s.flushDriftState()
		}
	}()
}

// observeDrift folds one served authenticate decision into the user's
// drift state — the monitor hook of the Fig. 7 loop. Runs on the
// connection goroutine; both monitor and scheduler are
// sharded/short-critical-section, so the authenticate hot path stays
// cheap.
func (s *Server) observeDrift(anon string, score float64, accepted bool) {
	d := s.drift
	if d == nil {
		return
	}
	cand, fire := d.monitor.Observe(anon, score, accepted, time.Now())
	if fire {
		// Only the user's write owner schedules the retrain: any cluster
		// node serves authenticates for any user (reads hit the full
		// replicated population), but a retrain publishes a model into the
		// user's shard, which only the owner may write. The owner sees the
		// same drift through its own traffic; candidates observed here are
		// counted as deferred.
		if s.ownsWrite(anon) {
			d.sched.Offer(cand)
		} else {
			d.deferred.Add(1)
		}
	}
	// Checkpoint cadence: every FlushEvery observations, hand the
	// flusher a (coalesced) wake-up.
	if n := d.obsSince.Add(1); n >= int64(d.cfg.FlushEvery) {
		d.obsSince.Store(0)
		select {
		case d.flushCh <- struct{}{}:
		default:
		}
	}
}

// flushDriftState checkpoints the monitor into the store registry. On a
// cluster node the checkpoint key lives in one shard like any other
// record, so only that shard's owner writes it — everyone else's monitor
// state stays in memory (reconstructible from traffic).
func (s *Server) flushDriftState() {
	d := s.drift
	if d == nil || !s.ownsWrite(store.DriftStateKey) {
		return
	}
	snap := d.monitor.Snapshot()
	if len(snap) == 0 {
		return
	}
	if err := s.persist.PublishDriftState(retrain.EncodeStates(snap)); err != nil {
		s.logf("drift state checkpoint: %v", err)
		return
	}
	d.flushes.Add(1)
}

// runScheduledRetrain executes one scheduler-dispatched retrain through
// the shared training pool. It is the train a client would request, on
// each context's newest RecentWindows windows against as many impostor
// windows per context, in the serving model's mode. The seed comes from
// the pseudonym and the version being replaced, so the same store always
// publishes the same bundle. A full pool returns retrain.ErrBusy so the
// scheduler backs off and requeues instead of dropping the candidate.
func (s *Server) runScheduledRetrain(c retrain.Candidate) error {
	anon := c.User
	version, _, err := s.persist.LatestModelHash(anon)
	var bundle *core.ModelBundle
	if err == nil {
		bundle, err = s.currentBundle(anon)
	}
	if err != nil {
		s.logf("scheduled retrain %s: current model: %v", anon, err)
		return fmt.Errorf("retrain %s: current model: %w", anon, err)
	}
	seed := fnv.New64a()
	fmt.Fprintf(seed, "%s/%d", anon, version)
	job := trainJob{
		req: trainRequest{UserID: anon, TrainParams: TrainParams{
			Mode:        bundle.Mode,
			MaxPerClass: s.drift.cfg.RecentWindows,
			Seed:        int64(seed.Sum64()),
		}},
		anon:   anon,
		recent: s.drift.cfg.RecentWindows,
		done:   make(chan trainResult, 1),
	}
	if !s.pool.trySubmit(job) {
		return retrain.ErrBusy
	}
	res := <-job.done
	if res.err != nil {
		s.logf("scheduled retrain %s: %v", anon, res.err)
		return res.err
	}
	s.logf("scheduled retrain %s: ewma %.3f over %d windows, version %d", anon, c.EWMA, c.Windows, res.version)
	return nil
}

// driftStates serves the TypeDriftState request from the monitor: one
// user's state, or the population's most-drifted slice (ascending EWMA,
// so the users closest to — or past — the retrain trigger come first).
func (s *Server) driftStates(req driftStateRequest) (driftStateResponse, error) {
	d := s.drift
	if d == nil {
		return driftStateResponse{}, fmt.Errorf("drift-state: drift-triggered retraining is disabled on this server")
	}
	now := time.Now()
	entry := func(user string, st retrain.UserState) DriftStateEntry {
		return DriftStateEntry{
			User:                user,
			EWMA:                st.EWMA,
			Windows:             st.Windows,
			LastTrainAgeSeconds: now.Sub(time.Unix(st.LastTrainUnix, 0)).Seconds(),
		}
	}
	if req.UserID != "" {
		anon := anonymize(req.UserID)
		st, ok := d.monitor.State(anon)
		if !ok {
			return driftStateResponse{}, nil
		}
		return driftStateResponse{States: []DriftStateEntry{entry(anon, st)}}, nil
	}
	limit := req.Limit
	if limit <= 0 {
		limit = 100
	}
	snap := d.monitor.Snapshot()
	states := make([]DriftStateEntry, 0, len(snap))
	for user, st := range snap {
		states = append(states, entry(user, st))
	}
	sort.Slice(states, func(i, j int) bool {
		if states[i].EWMA != states[j].EWMA {
			return states[i].EWMA < states[j].EWMA
		}
		return states[i].User < states[j].User
	})
	if len(states) > limit {
		states = states[:limit]
	}
	return driftStateResponse{States: states}, nil
}

// driftStats snapshots the retrain subsystem for the stats response.
func (s *Server) driftStats() *RetrainStats {
	d := s.drift
	if d == nil {
		return nil
	}
	c := d.sched.Counters()
	return &RetrainStats{
		Monitored:      d.monitor.Count(),
		Queued:         d.sched.Queued(),
		InFlight:       d.sched.InFlight(),
		Candidates:     c.Candidates,
		Coalesced:      c.Coalesced,
		CooldownSkips:  c.CooldownSkips,
		QueueDrops:     c.QueueDrops,
		BudgetRejected: c.BudgetRejected,
		Completed:      c.Completed,
		Failures:       c.Failures,
		Deferred:       d.deferred.Load(),
		Flushes:        d.flushes.Load(),
	}
}

// closeDrift stops the scheduler (draining in-flight retrains, which
// still need the training pool — call before pool.close), stops the
// flusher, and writes a final checkpoint so no observed drift is lost
// across the restart.
func (s *Server) closeDrift() {
	d := s.drift
	if d == nil {
		return
	}
	d.sched.Close()
	close(d.flushCh)
	<-d.flushDone
	s.flushDriftState()
}
