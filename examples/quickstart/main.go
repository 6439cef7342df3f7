// Quickstart: enroll a user, train the SmarterYou models, and
// authenticate both the owner and a stranger.
package main

import (
	"fmt"
	"log"

	"smarteryou"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A synthetic cohort stands in for real sensor data: user 0 will be
	// the device owner, the rest form the anonymized impostor population.
	pop, err := smarteryou.NewPopulation(10, 42)
	if err != nil {
		return err
	}
	owner := pop.Users[0]

	// Enrollment: collect two weeks of free-form usage windows (6 s each)
	// from the owner's phone and watch.
	ownerData, err := smarteryou.Collect(owner, smarteryou.CollectOptions{
		WindowSeconds:  6,
		SessionSeconds: 120,
		Sessions:       3,
		Days:           13,
		Seed:           1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("enrolled %q with %d feature windows\n", owner.ID, len(ownerData))

	// The impostor population (anonymized on the real server).
	var impostorData []smarteryou.WindowSample
	for i, u := range pop.Users[1:] {
		samples, err := smarteryou.Collect(u, smarteryou.CollectOptions{
			WindowSeconds:  6,
			SessionSeconds: 120,
			Sessions:       2,
			Seed:           int64(100 + i),
		})
		if err != nil {
			return err
		}
		impostorData = append(impostorData, samples...)
	}

	// The user-agnostic context detector is trained on other users only.
	detector, err := smarteryou.TrainContextDetector(
		smarteryou.ContextTrainingData(impostorData), smarteryou.DetectorConfig{Seed: 1})
	if err != nil {
		return err
	}

	// Train the per-context authentication models (the paper's best
	// configuration: phone + watch, context-specific KRR).
	bundle, err := smarteryou.Train(ownerData, impostorData, smarteryou.TrainConfig{
		Mode:        smarteryou.Mode{Combined: true, UseContext: true},
		MaxPerClass: 400,
		Seed:        7,
	})
	if err != nil {
		return err
	}
	auth, err := smarteryou.NewAuthenticator(detector, bundle)
	if err != nil {
		return err
	}

	// Fresh windows from the owner must authenticate...
	ownerTest, err := smarteryou.Collect(owner, smarteryou.CollectOptions{
		WindowSeconds: 6, SessionSeconds: 60, Sessions: 1, Seed: 999,
	})
	if err != nil {
		return err
	}
	// ...and fresh windows from a stranger must not.
	stranger := pop.Users[3]
	strangerTest, err := smarteryou.Collect(stranger, smarteryou.CollectOptions{
		WindowSeconds: 6, SessionSeconds: 60, Sessions: 1, Seed: 998,
	})
	if err != nil {
		return err
	}

	for _, r := range []struct {
		who     string
		samples []smarteryou.WindowSample
	}{{"owner", ownerTest}, {"stranger", strangerTest}} {
		accepted := 0
		for _, s := range r.samples {
			d, err := auth.Authenticate(s)
			if err != nil {
				return err
			}
			if d.Accepted {
				accepted++
			}
		}
		fmt.Printf("%-10s accepted in %2d/%2d windows\n", r.who, accepted, len(r.samples))
	}

	// Per-window detail for one owner window: context + confidence score.
	d, err := auth.Authenticate(ownerTest[0])
	if err != nil {
		return err
	}
	fmt.Printf("\nsample decision: context=%v (confidence %.2f), score=%.3f, accepted=%v\n",
		d.Context, d.ContextConfidence, d.Score, d.Accepted)
	return nil
}
