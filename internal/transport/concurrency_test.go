package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestSessionReusesConnection runs single and batched authenticates and
// a stream, then authenticates again, over one session: the client dials
// once.
func TestSessionReusesConnection(t *testing.T) {
	addr, userID, samples := startTrainedServer(t)
	var dials atomic.Int32
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey,
		Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout(network, addr, timeout)
		}})
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

	if _, err := session.Authenticate(userID, samples[0]); err != nil {
		t.Fatalf("session Authenticate: %v", err)
	}
	if _, err := session.AuthenticateBatch(userID, samples[:4]); err != nil {
		t.Fatalf("session AuthenticateBatch: %v", err)
	}
	stream, err := session.StartStream(userID)
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	if _, err := stream.Authenticate(samples[1]); err != nil {
		t.Fatalf("stream Authenticate: %v", err)
	}
	if err := stream.Close(); err != nil {
		t.Fatalf("stream Close: %v", err)
	}
	if _, err := session.Authenticate(userID, samples[2]); err != nil {
		t.Fatalf("session Authenticate after the stream: %v", err)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("dials = %d, want 1", n)
	}
}

// TestSessionConcurrentUse serializes concurrent authenticates on one
// connection: every caller gets its own window's decision.
func TestSessionConcurrentUse(t *testing.T) {
	addr, userID, samples := startTrainedServer(t)
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	want, err := client.AuthenticateBatch(userID, samples[:8])
	if err != nil {
		t.Fatalf("AuthenticateBatch: %v", err)
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
				d, err := session.Authenticate(userID, samples[w])
				if err == nil && d != want[w] {
					err = fmt.Errorf("window %d: decision %+v, want %+v", w, d, want[w])
				}
				if err != nil {
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
	if err := session.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := session.Close(); err != nil {
		t.Errorf("double Close should be a no-op, got %v", err)
	}
	if _, err := session.Authenticate("user-00", byUser["user-00"][0]); err == nil {
		t.Errorf("request on closed session should error")
	}
	if _, err := session.StartStream("user-00"); err == nil {
		t.Errorf("stream on closed session should error")
	}
}
