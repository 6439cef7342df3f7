package retrain

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSchedulerRunsCandidateAndAppliesCooldown(t *testing.T) {
	var runs atomic.Int64
	s := NewScheduler(Config{Budget: 1, Cooldown: time.Hour}, func(c Candidate) error {
		runs.Add(1)
		return nil
	})
	defer s.Close()

	if out := s.Offer(Candidate{User: "u1", EWMA: 0.1}); out != Offered {
		t.Fatalf("first offer outcome = %v, want Offered", out)
	}
	waitFor(t, "first retrain", func() bool { return runs.Load() == 1 })
	waitFor(t, "completion recorded", func() bool { return s.Counters().Completed == 1 })

	// Within cooldown, repeat offers are skipped without running.
	if out := s.Offer(Candidate{User: "u1", EWMA: 0.05}); out != OfferCooldown {
		t.Fatalf("offer during cooldown = %v, want OfferCooldown", out)
	}
	if got := s.Counters(); got.CooldownSkips != 1 || runs.Load() != 1 {
		t.Fatalf("cooldown did not hold: counters=%+v runs=%d", got, runs.Load())
	}
}

func TestSchedulerCoalescesDuplicates(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	s := NewScheduler(Config{Budget: 1, Cooldown: time.Hour}, func(c Candidate) error {
		started <- c.User
		<-release
		return nil
	})
	defer s.Close()
	defer close(release)

	// Occupy the single budget slot.
	s.Offer(Candidate{User: "busy", EWMA: 0.1})
	<-started

	// Duplicate offers for one queued user coalesce to a single entry
	// that keeps the worst EWMA.
	s.Offer(Candidate{User: "u2", EWMA: 0.15})
	s.Offer(Candidate{User: "u2", EWMA: 0.02})
	s.Offer(Candidate{User: "u2", EWMA: 0.10})
	if q := s.Queued(); q != 1 {
		t.Fatalf("queued = %d, want 1 coalesced entry", q)
	}
	s.mu.Lock()
	merged := s.queue["u2"]
	s.mu.Unlock()
	if merged.EWMA != 0.02 {
		t.Fatalf("coalesced EWMA = %v, want worst observed 0.02", merged.EWMA)
	}
	// Offers against the in-flight user coalesce too.
	if out := s.Offer(Candidate{User: "busy", EWMA: 0.01}); out != OfferCoalesced {
		t.Fatalf("offer for in-flight user = %v, want OfferCoalesced", out)
	}
	if got := s.Counters().Coalesced; got != 3 {
		t.Fatalf("coalesced counter = %d, want 3", got)
	}
}

func TestSchedulerPrefersHighestPriority(t *testing.T) {
	release := make(chan struct{})
	var order []string
	var mu sync.Mutex
	s := NewScheduler(Config{Budget: 1, Cooldown: time.Hour}, func(c Candidate) error {
		mu.Lock()
		order = append(order, c.User)
		mu.Unlock()
		<-release
		return nil
	})
	defer s.Close()

	now := time.Now()
	s.Offer(Candidate{User: "hold", EWMA: 0.19, LastTrain: now})
	waitFor(t, "slot occupied", func() bool { return s.InFlight() == 1 })
	// Queue three with distinct priorities while the slot is held.
	s.Offer(Candidate{User: "mild", EWMA: 0.15, LastTrain: now})
	s.Offer(Candidate{User: "worst", EWMA: -0.5, LastTrain: now.Add(-24 * time.Hour)})
	s.Offer(Candidate{User: "mid", EWMA: 0.0, LastTrain: now})
	close(release)
	waitFor(t, "queue drained", func() bool { return s.Counters().Completed == 4 })

	mu.Lock()
	defer mu.Unlock()
	if order[1] != "worst" {
		t.Fatalf("dispatch order %v: most severe+stale candidate must run first", order)
	}
}

func TestSchedulerBusyRequeuesWithBackoff(t *testing.T) {
	var calls atomic.Int64
	s := NewScheduler(Config{Budget: 1, Cooldown: time.Hour, BusyBackoff: 5 * time.Millisecond}, func(c Candidate) error {
		if calls.Add(1) == 1 {
			return ErrBusy
		}
		return nil
	})
	defer s.Close()

	s.Offer(Candidate{User: "u1", EWMA: 0.1})
	waitFor(t, "busy retry to complete", func() bool { return s.Counters().Completed == 1 })
	c := s.Counters()
	if c.BudgetRejected != 1 {
		t.Fatalf("budget rejections = %d, want 1", c.BudgetRejected)
	}
	if calls.Load() != 2 {
		t.Fatalf("retrain func ran %d times, want 2 (busy then success)", calls.Load())
	}
}

func TestSchedulerFailureStartsCooldown(t *testing.T) {
	boom := errors.New("boom")
	s := NewScheduler(Config{Budget: 1, Cooldown: time.Hour}, func(c Candidate) error {
		return boom
	})
	defer s.Close()
	s.Offer(Candidate{User: "u1", EWMA: 0.1})
	waitFor(t, "failure recorded", func() bool { return s.Counters().Failures == 1 })
	if out := s.Offer(Candidate{User: "u1", EWMA: 0.1}); out != OfferCooldown {
		t.Fatalf("offer after failure = %v, want OfferCooldown (no hot failure loop)", out)
	}
}

func TestSchedulerQueueFullSheds(t *testing.T) {
	release := make(chan struct{})
	s := NewScheduler(Config{Budget: 1, MaxQueue: 2, Cooldown: time.Hour}, func(c Candidate) error {
		<-release
		return nil
	})
	defer s.Close()
	defer close(release)

	s.Offer(Candidate{User: "running", EWMA: 0.1})
	waitFor(t, "slot occupied", func() bool { return s.InFlight() == 1 })
	s.Offer(Candidate{User: "q1", EWMA: 0.1})
	s.Offer(Candidate{User: "q2", EWMA: 0.1})
	if out := s.Offer(Candidate{User: "q3", EWMA: 0.1}); out != OfferQueueFull {
		t.Fatalf("offer into full queue = %v, want OfferQueueFull", out)
	}
	if got := s.Counters().QueueDrops; got != 1 {
		t.Fatalf("queue drops = %d, want 1", got)
	}
}

// TestRetrainSchedulerHammer drives concurrent offers, coalescing, busy
// responses and Close from many goroutines; it exists to run under
// -race via make race-retrain.
func TestRetrainSchedulerHammer(t *testing.T) {
	var busyFlip atomic.Int64
	s := NewScheduler(Config{Budget: 4, Cooldown: time.Millisecond, BusyBackoff: time.Millisecond, MinWindows: 1}, func(c Candidate) error {
		if busyFlip.Add(1)%7 == 0 {
			return ErrBusy
		}
		time.Sleep(time.Duration(busyFlip.Load()%3) * time.Millisecond)
		return nil
	})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			users := []string{"a", "b", "c", "d", "e", "f"}
			for i := 0; i < 200; i++ {
				u := users[(g+i)%len(users)]
				s.Offer(Candidate{User: u, EWMA: -float64(i % 5), Windows: uint64(i)})
				if i%50 == 0 {
					s.Counters()
					s.Queued()
					s.InFlight()
				}
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	c := s.Counters()
	if c.Candidates != 1600 {
		t.Fatalf("candidates = %d, want 1600", c.Candidates)
	}
	if c.Completed == 0 {
		t.Fatal("hammer completed zero retrains")
	}
}
