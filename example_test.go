package smarteryou_test

import (
	"fmt"

	"smarteryou"
)

// The synthetic population is deterministic in its seed.
func ExampleNewPopulation() {
	pop, err := smarteryou.NewPopulation(35, 1)
	if err != nil {
		panic(err)
	}
	d := pop.Demographics()
	fmt.Println(len(pop.Users), d.Female+d.Male)
	// Output: 35 35
}

// Sessions generate fixed-rate sensor streams for either device.
func ExampleSession_Generate() {
	pop, err := smarteryou.NewPopulation(1, 7)
	if err != nil {
		panic(err)
	}
	stream, err := smarteryou.Session{
		User:    pop.Users[0],
		Context: smarteryou.ContextMovingUse,
		Seconds: 12,
		Seed:    3,
	}.Generate(smarteryou.DevicePhone)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(stream.Samples), stream.Rate)
	// Output: 600 50
}

// Feature extraction turns a phone and a watch recording of one session
// into the paper's 6 s windows, paired into 28-feature vectors.
func ExamplePair() {
	pop, err := smarteryou.NewPopulation(1, 7)
	if err != nil {
		panic(err)
	}
	sess := smarteryou.Session{
		User:    pop.Users[0],
		Context: smarteryou.ContextStationaryUse,
		Seconds: 30,
		Seed:    1,
	}
	phone, err := sess.Generate(smarteryou.DevicePhone)
	if err != nil {
		panic(err)
	}
	watch, err := sess.Generate(smarteryou.DeviceWatch)
	if err != nil {
		panic(err)
	}
	windows, err := smarteryou.Pair(sess, phone, watch, 6)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(windows), len(windows[0].Vector(true)))
	// Output: 5 28
}

// The end-to-end flow: enroll, train, authenticate.
func ExampleTrain() {
	pop, err := smarteryou.NewPopulation(4, 11)
	if err != nil {
		panic(err)
	}
	owner := pop.Users[0]
	ownerData, err := smarteryou.Collect(owner, smarteryou.CollectOptions{
		WindowSeconds: 6, SessionSeconds: 60, Sessions: 1, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	var impostorData []smarteryou.WindowSample
	for i, u := range pop.Users[1:] {
		samples, err := smarteryou.Collect(u, smarteryou.CollectOptions{
			WindowSeconds: 6, SessionSeconds: 60, Sessions: 1, Seed: int64(2 + i),
		})
		if err != nil {
			panic(err)
		}
		impostorData = append(impostorData, samples...)
	}
	bundle, err := smarteryou.Train(ownerData, impostorData, smarteryou.TrainConfig{
		Mode: smarteryou.Mode{Combined: true}, // unified model: no detector needed
		Seed: 3,
	})
	if err != nil {
		panic(err)
	}
	auth, err := smarteryou.NewAuthenticator(nil, bundle)
	if err != nil {
		panic(err)
	}
	decision, err := auth.Authenticate(ownerData[0])
	if err != nil {
		panic(err)
	}
	fmt.Println(decision.Accepted)
	// Output: true
}
