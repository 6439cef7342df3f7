package smarteryou_test

import (
	"testing"
	"time"

	"smarteryou"
)

// TestFacadeEndToEnd exercises the public API the way the README's
// quickstart does: population → collection → context detector → training
// → authentication → response.
func TestFacadeEndToEnd(t *testing.T) {
	pop, err := smarteryou.NewPopulation(5, 99)
	if err != nil {
		t.Fatalf("NewPopulation: %v", err)
	}
	owner := pop.Users[0]

	ownerData, err := smarteryou.Collect(owner, smarteryou.CollectOptions{
		WindowSeconds: 6, SessionSeconds: 90, Sessions: 2, Seed: 1,
	})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	var impostorData []smarteryou.WindowSample
	for i, u := range pop.Users[1:] {
		samples, err := smarteryou.Collect(u, smarteryou.CollectOptions{
			WindowSeconds: 6, SessionSeconds: 90, Sessions: 1, Seed: int64(10 + i),
		})
		if err != nil {
			t.Fatalf("Collect: %v", err)
		}
		impostorData = append(impostorData, samples...)
	}

	det, err := smarteryou.TrainContextDetector(
		smarteryou.ContextTrainingData(impostorData), smarteryou.DetectorConfig{Seed: 1})
	if err != nil {
		t.Fatalf("TrainContextDetector: %v", err)
	}
	bundle, err := smarteryou.Train(ownerData, impostorData, smarteryou.TrainConfig{
		Mode: smarteryou.Mode{Combined: true, UseContext: true},
		Seed: 2,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	auth, err := smarteryou.NewAuthenticator(det, bundle)
	if err != nil {
		t.Fatalf("NewAuthenticator: %v", err)
	}
	response := smarteryou.NewResponseModule(smarteryou.ResponsePolicy{})
	monitor := smarteryou.NewDriftMonitor(smarteryou.ServerRetrainConfig{})

	accepted := 0
	for _, s := range ownerData {
		d, err := auth.Authenticate(s)
		if err != nil {
			t.Fatalf("Authenticate: %v", err)
		}
		if d.Accepted {
			accepted++
		}
		if action := response.Observe(d); action == smarteryou.ActionLock {
			t.Fatalf("owner locked out")
		}
		monitor.Observe(owner.ID, d.Score, d.Accepted, time.Time{})
	}
	if frac := float64(accepted) / float64(len(ownerData)); frac < 0.85 {
		t.Errorf("owner accepted in %v of windows", frac)
	}
}

// TestFacadeEnrollment exercises the enrollment convergence tracker.
func TestFacadeEnrollment(t *testing.T) {
	pop, err := smarteryou.NewPopulation(1, 5)
	if err != nil {
		t.Fatalf("NewPopulation: %v", err)
	}
	samples, err := smarteryou.Collect(pop.Users[0], smarteryou.CollectOptions{
		WindowSeconds: 6, SessionSeconds: 120, Sessions: 2, Seed: 9,
	})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	e := smarteryou.NewEnrollment()
	e.MaxSamples = 30
	done := false
	for _, s := range samples {
		if e.Add(s) {
			done = true
			break
		}
	}
	if !done {
		t.Errorf("enrollment never completed")
	}
}

// TestFacadeSensing exercises the signal-level API: sessions, devices,
// the Bluetooth link, and feature extraction.
func TestFacadeSensing(t *testing.T) {
	pop, err := smarteryou.NewPopulation(2, 6)
	if err != nil {
		t.Fatalf("NewPopulation: %v", err)
	}
	sess := smarteryou.Session{
		User:    pop.Users[0],
		Context: smarteryou.ContextMovingUse,
		Seconds: 12,
		Seed:    3,
	}
	stream, err := sess.Generate(smarteryou.DeviceWatch)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if stream.Rate != 50 {
		t.Errorf("rate = %v, want the paper's 50 Hz", stream.Rate)
	}
	lossy, err := smarteryou.BluetoothLink{DropRate: 0.05, Seed: 1}.Transmit(stream)
	if err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	phone, err := sess.Generate(smarteryou.DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	wins, err := smarteryou.Pair(sess, phone, lossy, 6)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	if len(wins) != 2 {
		t.Errorf("got %d windows, want 2", len(wins))
	}
	recorded, err := smarteryou.Record(sess, 6)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if len(recorded) != 2 || recorded[0].Phone != wins[0].Phone {
		t.Errorf("Record gave %d windows; its phone features must equal Pair's", len(recorded))
	}
}

// TestFacadeDurableStore exercises the persistence API end to end through
// the facade: open a store, collect and enroll through a durable server,
// restart both, and train from the recovered population alone.
func TestFacadeDurableStore(t *testing.T) {
	dir := t.TempDir()
	pop, err := smarteryou.NewPopulation(3, 41)
	if err != nil {
		t.Fatalf("NewPopulation: %v", err)
	}
	byUser := make(map[string][]smarteryou.WindowSample)
	var ctxTrain []smarteryou.WindowSample
	for i, u := range pop.Users {
		samples, err := smarteryou.Collect(u, smarteryou.CollectOptions{
			WindowSeconds: 6, SessionSeconds: 60, Sessions: 1, Seed: int64(20 + i),
		})
		if err != nil {
			t.Fatalf("Collect: %v", err)
		}
		byUser[u.ID] = samples
		ctxTrain = append(ctxTrain, samples...)
	}
	det, err := smarteryou.TrainContextDetector(
		smarteryou.ContextTrainingData(ctxTrain), smarteryou.DetectorConfig{Seed: 1, Trees: 10})
	if err != nil {
		t.Fatalf("TrainContextDetector: %v", err)
	}

	key := []byte("facade-store-key")
	runServer := func(seed map[string][]smarteryou.WindowSample) (*smarteryou.AuthServer, *smarteryou.PopulationStore, string) {
		store, err := smarteryou.OpenStore(dir, smarteryou.StoreOptions{})
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		server, err := smarteryou.NewAuthServer(smarteryou.AuthServerConfig{
			Key: key, Detector: det, Store: store,
		})
		if err != nil {
			t.Fatalf("NewAuthServer: %v", err)
		}
		if err := server.SeedPopulation(seed); err != nil {
			t.Fatalf("SeedPopulation: %v", err)
		}
		addr, err := server.Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		return server, store, addr.String()
	}

	// First lifetime: seed everyone, then stop.
	server, store, _ := runServer(byUser)
	if err := server.Close(); err != nil {
		t.Fatalf("Close server: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("Close store: %v", err)
	}

	// Second lifetime: recover, train without any enrollment traffic.
	server, store, addr := runServer(nil)
	defer func() {
		if err := server.Close(); err != nil {
			t.Errorf("Close server: %v", err)
		}
		if err := store.Close(); err != nil {
			t.Errorf("Close store: %v", err)
		}
	}()
	if got := store.Stats().Users; got != 3 {
		t.Fatalf("recovered %d users, want 3", got)
	}
	client, err := smarteryou.NewAuthClient(smarteryou.AuthClientConfig{Addr: addr, Key: key})
	if err != nil {
		t.Fatalf("NewAuthClient: %v", err)
	}
	owner := pop.Users[0].ID
	bundle, version, err := client.TrainVersioned(owner, smarteryou.TrainParams{Seed: 5})
	if err != nil {
		t.Fatalf("TrainVersioned from recovered population: %v", err)
	}
	if version != 1 || bundle == nil {
		t.Errorf("trained (bundle=%v, version=%d), want a v1 bundle", bundle != nil, version)
	}
	if _, fetchedVersion, err := client.FetchModel(owner, 0); err != nil || fetchedVersion != 1 {
		t.Errorf("FetchModel = (v%d, %v), want v1", fetchedVersion, err)
	}
	stats, err := client.FullStats()
	if err != nil {
		t.Fatalf("FullStats: %v", err)
	}
	if stats.WALBytes == 0 {
		t.Errorf("stats = %+v, want persistence reported", stats)
	}
}
