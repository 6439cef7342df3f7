// Cloud deployment (Fig. 1): an Authentication Server runs the training
// module; the phone enrolls over TCP, downloads the context-detection
// model and its authentication models, and then authenticates entirely
// on-device (no network needed at test time). The smartwatch stream
// arrives over a lossy simulated Bluetooth link.
package main

import (
	"fmt"
	"log"
	"os"

	"smarteryou"
)

func main() {
	key := []byte("demo-pre-shared-key")
	pop, err := smarteryou.NewPopulation(8, 23)
	if err != nil {
		log.Fatal(err)
	}
	owner := pop.Users[0]

	// --- Server side: context detector + anonymized population store. ---
	population := make(map[string][]smarteryou.WindowSample)
	var ctxTrain []smarteryou.WindowSample
	for i, u := range pop.Users[1:] {
		samples, err := smarteryou.Collect(u, smarteryou.CollectOptions{
			WindowSeconds: 6, SessionSeconds: 120, Sessions: 2, Seed: int64(700 + i),
		})
		if err != nil {
			log.Fatal(err)
		}
		population[u.ID] = samples
		ctxTrain = append(ctxTrain, samples...)
	}
	detector, err := smarteryou.TrainContextDetector(
		smarteryou.ContextTrainingData(ctxTrain), smarteryou.DetectorConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	// The demo keeps nothing: its store lives in a temporary directory.
	dir, err := os.MkdirTemp("", "smarteryou-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := smarteryou.OpenStore(dir, smarteryou.StoreOptions{NoSync: true})
	if err != nil {
		log.Fatal(err)
	}
	server, err := smarteryou.NewAuthServer(smarteryou.AuthServerConfig{
		Key:      key,
		Detector: detector,
		Store:    store,
		Logf:     func(format string, args ...any) { log.Printf("[server] "+format, args...) },
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := server.SeedPopulation(population); err != nil {
		log.Fatal(err)
	}
	addr, err := server.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := server.Close(); err != nil {
			log.Printf("server close: %v", err)
		}
		if err := store.Close(); err != nil {
			log.Printf("store close: %v", err)
		}
	}()
	fmt.Printf("authentication server listening on %s\n", addr)

	// --- Phone side. ---
	client, err := smarteryou.NewAuthClient(smarteryou.AuthClientConfig{
		Addr: addr.String(),
		Key:  key,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Enrollment phase: collect until the feature distribution converges.
	enrollment := smarteryou.NewEnrollment()
	enrollData, err := smarteryou.Collect(owner, smarteryou.CollectOptions{
		WindowSeconds: 6, SessionSeconds: 300, Sessions: 3, Days: 6, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range enrollData {
		if enrollment.Add(s) {
			break
		}
	}
	fmt.Printf("enrollment converged after %d windows\n", enrollment.Count())

	stored, err := client.Enroll(owner.ID, enrollment.Samples())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded %d windows to the training module\n", stored)

	// Download the context detector and the trained models.
	downloadedDetector, err := client.FetchDetector()
	if err != nil {
		log.Fatal(err)
	}
	bundle, err := client.Train(owner.ID, smarteryou.TrainParams{
		Mode: smarteryou.Mode{Combined: true, UseContext: true},
		Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	auth, err := smarteryou.NewAuthenticator(downloadedDetector, bundle)
	if err != nil {
		log.Fatal(err)
	}
	users, windows, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server population: %d users, %d windows (anonymized)\n", users, windows)

	// Test time: the watch stream crosses a lossy Bluetooth link before
	// feature extraction; authentication is fully on-device.
	link := smarteryou.BluetoothLink{FrameSamples: 10, DropRate: 0.02, Seed: 3}
	session := smarteryou.Session{
		User: owner, Context: smarteryou.ContextMovingUse, Seconds: 60, Seed: 77,
	}
	phoneStream, err := session.Generate(smarteryou.DevicePhone)
	if err != nil {
		log.Fatal(err)
	}
	watchRaw, err := session.Generate(smarteryou.DeviceWatch)
	if err != nil {
		log.Fatal(err)
	}
	watchStream, err := link.Transmit(watchRaw)
	if err != nil {
		log.Fatal(err)
	}
	samples, err := smarteryou.Pair(session, phoneStream, watchStream, 6)
	if err != nil {
		log.Fatal(err)
	}
	accepted := 0
	for _, s := range samples {
		d, err := auth.Authenticate(s)
		if err != nil {
			log.Fatal(err)
		}
		if d.Accepted {
			accepted++
		}
	}
	fmt.Printf("owner authenticated in %d/%d windows over the lossy watch link\n",
		accepted, len(samples))
}
