// Masquerading attack (Section V-G): an adversary who has watched and
// recorded the victim tries to imitate the victim's behaviour. This
// example shows how long mimics of increasing fidelity survive before the
// system de-authenticates them.
package main

import (
	"fmt"
	"log"

	"smarteryou"
	"smarteryou/internal/attack"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	pop, err := smarteryou.NewPopulation(8, 99)
	if err != nil {
		return err
	}
	victim := pop.Users[0]
	auth, err := buildAuthenticator(pop, victim)
	if err != nil {
		return err
	}

	fmt.Println("masquerading attack vs mimicry fidelity")
	fmt.Printf("%-10s %14s %14s %14s\n", "fidelity", "caught<=6s", "caught<=18s", "mean time")
	for _, fidelity := range []float64{0.0, 0.5, 0.9, 1.0} {
		res, err := attack.Run(auth, attack.Scenario{
			Victim:         victim,
			Attackers:      pop.Users[1:6],
			Fidelity:       fidelity,
			HorizonSeconds: 60,
			WindowSeconds:  6,
			Trials:         4,
			Seed:           2027,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-10.1f %13.0f%% %13.0f%% %12.1fs\n",
			fidelity,
			res.FractionDetectedBy(6)*100,
			res.FractionDetectedBy(18)*100,
			res.MeanDetectionSeconds())
	}

	// The survival curve at the paper's fidelity (Fig. 6).
	res, err := attack.Run(auth, attack.Scenario{
		Victim:         victim,
		Attackers:      pop.Users[1:6],
		Fidelity:       0.9,
		HorizonSeconds: 60,
		WindowSeconds:  6,
		Trials:         4,
		Seed:           2028,
	})
	if err != nil {
		return err
	}
	fmt.Println("\nsurvival curve at fidelity 0.9:")
	times, fractions := res.SurvivalCurve()
	for i, t := range times {
		fmt.Printf("t=%2.0fs  %5.1f%% of adversaries still have access\n", t, fractions[i]*100)
	}
	return nil
}

func buildAuthenticator(pop *smarteryou.Population, victim *smarteryou.User) (*smarteryou.Authenticator, error) {
	victimData, err := smarteryou.Collect(victim, smarteryou.CollectOptions{
		WindowSeconds: 6, SessionSeconds: 150, Sessions: 3, Days: 13, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	var impostorData []smarteryou.WindowSample
	for i, u := range pop.Users {
		if u == victim {
			continue
		}
		samples, err := smarteryou.Collect(u, smarteryou.CollectOptions{
			WindowSeconds: 6, SessionSeconds: 150, Sessions: 2, Seed: int64(300 + i),
		})
		if err != nil {
			return nil, err
		}
		impostorData = append(impostorData, samples...)
	}
	det, err := smarteryou.TrainContextDetector(
		smarteryou.ContextTrainingData(impostorData), smarteryou.DetectorConfig{Seed: 2})
	if err != nil {
		return nil, err
	}
	bundle, err := smarteryou.Train(victimData, impostorData, smarteryou.TrainConfig{
		Mode: smarteryou.Mode{Combined: true, UseContext: true},
		Seed: 3,
	})
	if err != nil {
		return nil, err
	}
	return smarteryou.NewAuthenticator(det, bundle)
}
