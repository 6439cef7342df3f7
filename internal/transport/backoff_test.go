package transport

import (
	"errors"
	"testing"
	"time"
)

// TestBusyPolicyBackoff drives the retry policy with an always-busy
// endpoint and checks attempt counting and the capped exponential
// schedule derived from the server hint.
func TestBusyPolicyBackoff(t *testing.T) {
	hint := 2 * time.Millisecond
	busyErr := &BusyError{Message: "full", RetryAfter: hint}

	t.Run("exhausts configured attempts", func(t *testing.T) {
		p := newBusyPolicy(3, 50*time.Millisecond)
		calls := 0
		err := p.run(func() error { calls++; return busyErr })
		var busy *BusyError
		if !errors.As(err, &busy) {
			t.Fatalf("err = %v, want BusyError", err)
		}
		if calls != 4 { // initial + 3 retries
			t.Fatalf("calls = %d, want 4", calls)
		}
	})

	t.Run("negative disables retries", func(t *testing.T) {
		p := newBusyPolicy(-1, 0)
		calls := 0
		_ = p.run(func() error { calls++; return busyErr })
		if calls != 1 {
			t.Fatalf("calls = %d, want 1 (retries disabled)", calls)
		}
	})

	t.Run("zero means default", func(t *testing.T) {
		c, err := NewClient(ClientConfig{Addr: "127.0.0.1:1", Key: []byte("k")})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		if c.retry.retries != 3 {
			t.Fatalf("default retries = %d, want 3", c.retry.retries)
		}
		if c.retry.cap != 8*time.Second {
			t.Fatalf("cap = %v, want 8s", c.retry.cap)
		}
	})

	t.Run("backoff grows then caps", func(t *testing.T) {
		// Cap below the doubled hint: schedule should be hint, cap, cap.
		p := newBusyPolicy(3, 3*time.Millisecond)
		start := time.Now()
		calls := 0
		_ = p.run(func() error { calls++; return busyErr })
		elapsed := time.Since(start)
		want := hint + 3*time.Millisecond + 3*time.Millisecond
		if elapsed < want {
			t.Fatalf("elapsed %v, want ≥ %v (hint then capped doubling)", elapsed, want)
		}
		if calls != 4 {
			t.Fatalf("calls = %d, want 4", calls)
		}
	})

	t.Run("recovers mid-schedule", func(t *testing.T) {
		p := newBusyPolicy(5, 50*time.Millisecond)
		calls := 0
		err := p.run(func() error {
			calls++
			if calls < 3 {
				return busyErr
			}
			return nil
		})
		if err != nil {
			t.Fatalf("err = %v, want nil after recovery", err)
		}
		if calls != 3 {
			t.Fatalf("calls = %d, want 3", calls)
		}
	})

	t.Run("non-busy errors pass through untouched", func(t *testing.T) {
		p := newBusyPolicy(3, time.Millisecond)
		calls := 0
		wantErr := errors.New("boom")
		if err := p.run(func() error { calls++; return wantErr }); !errors.Is(err, wantErr) {
			t.Fatalf("err = %v, want %v", err, wantErr)
		}
		if calls != 1 {
			t.Fatalf("calls = %d, want 1 (no retry on non-busy errors)", calls)
		}
	})
}
