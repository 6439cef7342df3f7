package retrain

import (
	"sync"
	"time"
)

// RetrainFunc executes one scheduled retrain. Returning ErrBusy means
// the training pool refused the job; the scheduler requeues the
// candidate after a backoff. Any other error counts as a failure and
// starts the user's cooldown so a persistently failing user cannot spin
// the scheduler.
type RetrainFunc func(c Candidate) error

// OfferOutcome reports what the scheduler did with an offered candidate.
type OfferOutcome int

const (
	// Offered: the candidate entered the queue.
	Offered OfferOutcome = iota
	// OfferCoalesced: merged into a queued candidate, or dropped because
	// the same user's retrain is already running.
	OfferCoalesced
	// OfferCooldown: dropped — the user retrained too recently.
	OfferCooldown
	// OfferQueueFull: dropped — the queue is at MaxQueue.
	OfferQueueFull
	// OfferClosed: dropped — the scheduler is shutting down.
	OfferClosed
)

// Counters are the scheduler's cumulative statistics, surfaced through
// the server's stats endpoint so operators can see the retraining loop
// working (or saturating) without log archaeology.
type Counters struct {
	// Candidates counts every candidate offered by the monitor.
	Candidates uint64
	// Coalesced counts offers merged into queued or in-flight work.
	Coalesced uint64
	// CooldownSkips counts offers dropped by the per-user cooldown.
	CooldownSkips uint64
	// QueueDrops counts offers dropped because the queue was full.
	QueueDrops uint64
	// BudgetRejected counts dispatch attempts the training pool refused.
	BudgetRejected uint64
	// Completed counts all successful scheduled retrains.
	Completed uint64
	// Failures counts scheduled retrains that returned an error.
	Failures uint64
}

// Scheduler sits between the drift monitor and the training pool. It
// owns a coalescing priority queue and Budget dispatch goroutines; each
// goroutine claims the highest-priority candidate, runs it through the
// RetrainFunc, and applies cooldown on completion. The concurrency
// budget is the goroutine count itself — at most Budget scheduled
// retrains ever occupy the shared worker pool, leaving headroom for
// client-initiated trains.
type Scheduler struct {
	cfg Config
	run RetrainFunc
	now func() time.Time

	mu       sync.Mutex
	cond     *sync.Cond
	queue    map[string]Candidate
	inFlight map[string]struct{}
	cooldown map[string]time.Time
	counters Counters
	closed   bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewScheduler starts cfg.Budget dispatch goroutines over run. Close the
// scheduler to stop them.
func NewScheduler(cfg Config, run RetrainFunc) *Scheduler {
	s := &Scheduler{
		cfg:      cfg.WithDefaults(),
		run:      run,
		now:      time.Now,
		queue:    make(map[string]Candidate),
		inFlight: make(map[string]struct{}),
		cooldown: make(map[string]time.Time),
		done:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < s.cfg.Budget; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Offer hands the scheduler a retrain candidate. Duplicate offers for a
// user already queued or running are coalesced (the queued entry keeps
// the worst observed EWMA), recently retrained users are dropped by the
// cooldown, and a full queue sheds load instead of growing without
// bound.
func (s *Scheduler) Offer(c Candidate) OfferOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.Candidates++
	if s.closed {
		return OfferClosed
	}
	if until, ok := s.cooldown[c.User]; ok {
		if s.now().Before(until) {
			s.counters.CooldownSkips++
			return OfferCooldown
		}
		delete(s.cooldown, c.User)
	}
	if _, running := s.inFlight[c.User]; running {
		s.counters.Coalesced++
		return OfferCoalesced
	}
	if old, ok := s.queue[c.User]; ok {
		// Keep the most alarming view of the user: the lowest EWMA and
		// the freshest window count.
		if c.EWMA < old.EWMA {
			old.EWMA = c.EWMA
		}
		old.Windows = c.Windows
		s.queue[c.User] = old
		s.counters.Coalesced++
		return OfferCoalesced
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		s.counters.QueueDrops++
		return OfferQueueFull
	}
	s.queue[c.User] = c
	s.cond.Signal()
	return Offered
}

// next blocks until a candidate is claimable or the scheduler closes.
func (s *Scheduler) next() (Candidate, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return Candidate{}, false
		}
		if len(s.queue) > 0 {
			now := s.now()
			var best Candidate
			bestPrio := -1.0
			for _, c := range s.queue {
				if p := c.priority(s.cfg.Threshold, now); p > bestPrio {
					best, bestPrio = c, p
				}
			}
			delete(s.queue, best.User)
			s.inFlight[best.User] = struct{}{}
			return best, true
		}
		s.cond.Wait()
	}
}

// finish records the outcome of one dispatched candidate. A busy pool
// requeues (after the worker's backoff); success and failure both start
// the user's cooldown.
func (s *Scheduler) finish(c Candidate, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inFlight, c.User)
	switch {
	case err == nil:
		s.counters.Completed++
		s.cooldown[c.User] = s.now().Add(s.cfg.Cooldown)
	case err == ErrBusy:
		s.counters.BudgetRejected++
		if !s.closed {
			if _, queued := s.queue[c.User]; !queued && len(s.queue) < s.cfg.MaxQueue {
				s.queue[c.User] = c
				s.cond.Signal()
			}
		}
	default:
		s.counters.Failures++
		s.cooldown[c.User] = s.now().Add(s.cfg.Cooldown)
	}
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		c, ok := s.next()
		if !ok {
			return
		}
		err := s.run(c)
		if err == ErrBusy {
			// Let the pool drain before contending for a slot again.
			select {
			case <-time.After(s.cfg.BusyBackoff):
			case <-s.done:
			}
		}
		s.finish(c, err)
	}
}

// Counters returns a copy of the cumulative counters.
func (s *Scheduler) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// Queued reports candidates waiting for a dispatch slot.
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// InFlight reports scheduled retrains currently executing.
func (s *Scheduler) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inFlight)
}

// Close stops the dispatch goroutines after any in-flight retrains
// finish. Queued candidates are discarded — drift state survives in the
// monitor, so they re-emerge on the next sub-threshold window after a
// restart.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.done)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
