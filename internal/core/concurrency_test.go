package core

import (
	"sync"
	"testing"
)

// TestAuthenticateConcurrentWithSwap exercises the documented concurrency
// contract: authentication keeps working while a retrained bundle is
// swapped in. Run with -race to verify.
func TestAuthenticateConcurrentWithSwap(t *testing.T) {
	f := newFixture(t, 3, 60)
	mode := Mode{Combined: true, UseContext: false}
	b1, err := Train(f.perUser[0], f.impostors(0), TrainConfig{Mode: mode, Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	b2, err := Train(f.perUser[0], f.impostors(0), TrainConfig{Mode: mode, Seed: 2})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	auth, err := NewAuthenticator(nil, b1)
	if err != nil {
		t.Fatalf("NewAuthenticator: %v", err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := auth.Authenticate(f.perUser[0][i%len(f.perUser[0])]); err != nil {
					errs <- err
					return
				}
				i++
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		bundles := []*ModelBundle{b1, b2}
		for i := 0; i < 200; i++ {
			if err := auth.SwapBundle(bundles[i%2]); err != nil {
				errs <- err
				return
			}
		}
		close(stop)
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("concurrent use failed: %v", err)
	default:
	}
}

// TestResponseModuleConcurrent hammers the response module from multiple
// goroutines; the lock must behave like a monotonic latch.
func TestResponseModuleConcurrent(t *testing.T) {
	r := NewResponseModule(ResponsePolicy{LockAfter: 5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Observe(Decision{Accepted: (i+seed)%3 != 0, Score: 1})
			}
		}(w)
	}
	wg.Wait()
	// No assertion on the final state (interleaving-dependent) — the test
	// exists for the race detector and for absence of panics.
	_ = r.Locked()
}
