package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smarteryou/internal/core"
	"smarteryou/internal/features"
)

// TestTrainBackpressure drives the training pool to saturation and checks
// the server's liveness contract: slow trains fill the single worker and
// the one queue slot, an over-limit train gets an immediate busy response
// (not a hang), and cheap requests — authenticate, enroll, stats — keep
// round-tripping the whole time.
func TestTrainBackpressure(t *testing.T) {
	det, byUser := buildFixture(t)

	var gate atomic.Bool
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	trainTestHook = func(trainRequest) {
		if gate.Load() {
			started <- struct{}{}
			<-release
		}
	}

	srv, err := NewServer(ServerConfig{
		Key:             testKey,
		Detector:        det,
		Store:           openTestStore(t),
		TrainWorkers:    1,
		TrainQueueDepth: 1,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		trainTestHook = nil
	}()
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll()

	seed := make(map[string][]features.WindowSample)
	for id, samples := range byUser {
		if id != "user-00" {
			seed[id] = samples
		}
	}
	if err := srv.SeedPopulation(seed); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}

	client, err := NewClient(ClientConfig{Addr: addr.String(), Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, err := client.Enroll("user-00", byUser["user-00"]); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	params := TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: 3}
	// Pre-train once so the server holds a model to authenticate with.
	if _, err := client.Train("user-00", params); err != nil {
		t.Fatalf("pre-train: %v", err)
	}

	// Saturate: train A parks in the worker, train B fills the queue slot.
	gate.Store(true)
	trainErrs := make(chan error, 2)
	go func() {
		_, err := client.Train("user-00", params)
		trainErrs <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("train A never reached the worker")
	}
	go func() {
		_, err := client.Train("user-00", params)
		trainErrs <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.pool.queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("train B never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Over-limit train must fail fast with a busy response.
	_, err = client.Train("user-00", params)
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("over-limit train err = %v, want BusyError", err)
	}
	if busy.RetryAfter <= 0 {
		t.Errorf("busy retry-after = %v, want positive", busy.RetryAfter)
	}

	// The server must keep serving everything that is not a train.
	dec, err := client.Authenticate("user-00", byUser["user-00"][0])
	if err != nil {
		t.Fatalf("Authenticate under saturated pool: %v", err)
	}
	if dec.Context == "" {
		t.Errorf("authenticate decision has no context")
	}
	if _, err := client.Enroll("user-00", byUser["user-00"][:1]); err != nil {
		t.Fatalf("Enroll under saturated pool: %v", err)
	}
	st, err := client.FullStats()
	if err != nil {
		t.Fatalf("Stats under saturated pool: %v", err)
	}
	if st.Train.Workers != 1 || st.Train.QueueDepth != 1 {
		t.Errorf("pool shape = %d workers / depth %d, want 1/1", st.Train.Workers, st.Train.QueueDepth)
	}
	if st.Train.InFlight != 1 {
		t.Errorf("in-flight = %d, want 1", st.Train.InFlight)
	}
	if st.Train.Queued != 1 {
		t.Errorf("queued = %d, want 1", st.Train.Queued)
	}
	if st.Train.Rejected == 0 {
		t.Errorf("rejected = 0, want at least 1")
	}

	// Drain: both parked trains must complete successfully.
	releaseAll()
	for i := 0; i < 2; i++ {
		select {
		case err := <-trainErrs:
			if err != nil {
				t.Errorf("queued train %d: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("queued trains did not complete after release")
		}
	}
	st, err = client.FullStats()
	if err != nil {
		t.Fatalf("final Stats: %v", err)
	}
	if st.Train.Completed < 3 {
		t.Errorf("completed = %d, want >= 3", st.Train.Completed)
	}
}

// TestTrainPoolConcurrentHammer fires concurrent trains and authenticates
// at a small pool — the -race companion for the pool's counters, the model
// cache, and the busy path. Every train must either succeed or report
// busy; authentication must never fail.
func TestTrainPoolConcurrentHammer(t *testing.T) {
	det, byUser := buildFixture(t)
	srv, err := NewServer(ServerConfig{
		Key:             testKey,
		Detector:        det,
		Store:           openTestStore(t),
		TrainWorkers:    2,
		TrainQueueDepth: 2,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	seed := make(map[string][]features.WindowSample)
	for id, samples := range byUser {
		if id != "user-00" {
			seed[id] = samples
		}
	}
	if err := srv.SeedPopulation(seed); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}
	client, err := NewClient(ClientConfig{Addr: addr.String(), Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, err := client.Enroll("user-00", byUser["user-00"]); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	params := TrainParams{
		Mode:        core.Mode{Combined: true, UseContext: true},
		Seed:        4,
		MaxPerClass: 40,
	}
	if _, err := client.Train("user-00", params); err != nil {
		t.Fatalf("pre-train: %v", err)
	}

	var wg sync.WaitGroup
	var succeeded, busied atomic.Uint64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := client.Train("user-00", params)
			switch {
			case err == nil:
				succeeded.Add(1)
			case errors.As(err, new(*BusyError)):
				busied.Add(1)
			default:
				t.Errorf("train: %v", err)
			}
		}()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sample := byUser["user-00"][i%len(byUser["user-00"])]
			if _, err := client.Authenticate("user-00", sample); err != nil {
				t.Errorf("authenticate: %v", err)
			}
		}(g)
	}
	wg.Wait()
	if succeeded.Load() == 0 {
		t.Error("no concurrent train succeeded")
	}
	if got := succeeded.Load() + busied.Load(); got != 8 {
		t.Errorf("train outcomes = %d, want 8", got)
	}
}
