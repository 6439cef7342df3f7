package transport

import (
	"fmt"
	"sync"
	"testing"

	"smarteryou/internal/core"
	"smarteryou/internal/features"
)

// TestServerConcurrentClients runs many clients against one server at
// once: parallel enrollments, stats queries and trainings must not corrupt
// the store. Run with -race.
func TestServerConcurrentClients(t *testing.T) {
	det, byUser := buildFixture(t)
	srv, addr := startServer(t, det)
	if err := srv.SeedPopulation(byUser); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
			if err != nil {
				errs <- err
				return
			}
			userID := fmt.Sprintf("worker-%d", w)
			samples := byUser["user-00"]
			for i := 0; i < 5; i++ {
				if _, err := client.Enroll(userID, samples[:10]); err != nil {
					errs <- fmt.Errorf("worker %d enroll: %w", w, err)
					return
				}
				if _, _, err := client.Stats(); err != nil {
					errs <- fmt.Errorf("worker %d stats: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Every worker's uploads must be present and correctly sized.
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	users, windows, err := client.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if users != 5+8 {
		t.Errorf("users = %d, want 13 (5 seeded + 8 workers)", users)
	}
	wantWindows := 0
	for _, s := range byUser {
		wantWindows += len(s)
	}
	wantWindows += 8 * 5 * 10
	if windows != wantWindows {
		t.Errorf("windows = %d, want %d", windows, wantWindows)
	}
}

// TestClientMultipleRequestsSequential verifies a client can issue many
// sequential round trips (each on a fresh connection).
func TestClientMultipleRequestsSequential(t *testing.T) {
	det, byUser := buildFixture(t)
	_, addr := startServer(t, det)
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	var samples []features.WindowSample
	for _, s := range byUser {
		samples = s
		break
	}
	for i := 0; i < 10; i++ {
		if _, err := client.Enroll("seq-user", samples[:2]); err != nil {
			t.Fatalf("enroll %d: %v", i, err)
		}
	}
	_, windows, err := client.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if windows != 20 {
		t.Errorf("windows = %d, want 20", windows)
	}
}

// TestSessionReusesConnection runs the full retraining flow — upload,
// detector download, training — over one session connection.
func TestSessionReusesConnection(t *testing.T) {
	det, byUser := buildFixture(t)
	srv, addr := startServer(t, det)
	if err := srv.SeedPopulation(byUser); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}

	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	session, err := client.NewSession()
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer func() {
		if err := session.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	if _, err := session.Enroll("session-user", byUser["user-00"]); err != nil {
		t.Fatalf("session Enroll: %v", err)
	}
	if _, err := session.FetchDetector(); err != nil {
		t.Fatalf("session FetchDetector: %v", err)
	}
	bundle, err := session.Train("session-user", TrainParams{
		Mode: core.Mode{Combined: true, UseContext: false},
		Seed: 2,
	})
	if err != nil {
		t.Fatalf("session Train: %v", err)
	}
	if bundle == nil || len(bundle.Models) == 0 {
		t.Fatalf("session Train returned empty bundle")
	}
	if _, err := session.ReplaceEnrollment("session-user", byUser["user-00"][:5]); err != nil {
		t.Fatalf("session ReplaceEnrollment: %v", err)
	}
	users, windows, err := session.Stats()
	if err != nil {
		t.Fatalf("session Stats: %v", err)
	}
	if users == 0 || windows == 0 {
		t.Errorf("stats = %d users / %d windows", users, windows)
	}
}

// TestSessionConcurrentUse serializes concurrent calls on one connection.
func TestSessionConcurrentUse(t *testing.T) {
	det, byUser := buildFixture(t)
	_, addr := startServer(t, det)
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	session, err := client.NewSession()
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer func() { _ = session.Close() }()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := session.Enroll(fmt.Sprintf("cc-%d", w), byUser["user-01"][:2]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestSessionClosed(t *testing.T) {
	det, _ := buildFixture(t)
	_, addr := startServer(t, det)
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	session, err := client.NewSession()
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := session.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := session.Close(); err != nil {
		t.Errorf("double Close should be a no-op, got %v", err)
	}
	if _, _, err := session.Stats(); err == nil {
		t.Errorf("request on closed session should error")
	}
}
