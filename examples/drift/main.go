// Behavioural drift and automatic retraining (Section V-I): the owner's
// habits change over days; the confidence score decays until the monitor
// triggers a retrain, after which it recovers. An attacker's confidence
// score stays negative and can never trigger retraining.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"smarteryou"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	pop, err := smarteryou.NewPopulation(8, 22)
	if err != nil {
		return err
	}
	owner := pop.Users[3] // a user whose habits drift substantially over the two weeks

	// Impostor population and context detector.
	var impostorData []smarteryou.WindowSample
	for i, u := range pop.Users[1:] {
		samples, err := smarteryou.Collect(u, smarteryou.CollectOptions{
			WindowSeconds: 6, SessionSeconds: 120, Sessions: 2, Seed: int64(500 + i),
		})
		if err != nil {
			return err
		}
		impostorData = append(impostorData, samples...)
	}
	det, err := smarteryou.TrainContextDetector(
		smarteryou.ContextTrainingData(impostorData), smarteryou.DetectorConfig{Seed: 1})
	if err != nil {
		return err
	}

	// Enroll at day 0 and train.
	trainCfg := smarteryou.TrainConfig{
		Mode: smarteryou.Mode{Combined: true, UseContext: true},
		Seed: 2,
	}
	enroll, err := collectAtDay(owner, 0, 600)
	if err != nil {
		return err
	}
	bundle, err := smarteryou.Train(enroll, impostorData, trainCfg)
	if err != nil {
		return err
	}
	auth, err := smarteryou.NewAuthenticator(det, bundle)
	if err != nil {
		return err
	}

	// Calibrate the drift threshold to this user's enrollment-time
	// confidence: a fixed epsilon (the paper uses 0.2) only makes sense
	// relative to where the healthy scores sit.
	var enrollCS float64
	for _, w := range enroll {
		d, err := auth.Authenticate(w)
		if err != nil {
			return err
		}
		enrollCS += d.Score
	}
	enrollCS /= float64(len(enroll))
	threshold := 0.4 * enrollCS
	monitor := smarteryou.NewDriftMonitor(smarteryou.ServerRetrainConfig{Threshold: threshold})
	response := smarteryou.NewResponseModule(smarteryou.ResponsePolicy{DenyAfter: 1, LockAfter: 4})
	fmt.Printf("enrollment mean CS %.3f; retrain threshold set to %.3f\n\n", enrollCS, threshold)

	// Two retraining paths, both from Section V-I / IV-B:
	//  - gradual drift: the confidence-score monitor fires while the user
	//    is still being accepted;
	//  - abrupt change: the user gets falsely locked out, re-authenticates
	//    explicitly (password / multi-factor), and that explicit proof of
	//    identity authorizes retraining with her latest windows.
	retrain := func(windows []smarteryou.WindowSample, day float64) error {
		newBundle, err := smarteryou.Train(windows, impostorData, trainCfg)
		if err != nil {
			return err
		}
		monitor.MarkTrained(owner.ID, dayTime(day))
		return auth.SwapBundle(newBundle)
	}

	fmt.Println("Watch the feedback loop: early lockouts retrain the cold-start model,")
	fmt.Println("and once the model has caught up with the drifting user the confidence")
	fmt.Println("score climbs and lockouts stop.")
	fmt.Println()
	fmt.Println("day   mean confidence score")
	for day := 0.0; day <= 12; day++ {
		windows, err := collectAtDay(owner, day, 300)
		if err != nil {
			return err
		}
		var sum float64
		note := ""
		for _, w := range windows {
			d, err := auth.Authenticate(w)
			if err != nil {
				return err
			}
			sum += d.Score
			if response.Observe(d) == smarteryou.ActionLock {
				// False lockout of the owner: explicit re-authentication
				// proves identity and authorizes retraining.
				if err := retrain(windows, day); err != nil {
					return err
				}
				response.Unlock()
				note = "  <-- false lockout: explicit re-auth + retrain"
			}
			if _, drifted := monitor.Observe(owner.ID, d.Score, d.Accepted, dayTime(day)); drifted {
				if err := retrain(windows, day); err != nil {
					return err
				}
				note = "  <-- drift detected by CS monitor: retrained"
			}
		}
		fmt.Printf("%4.0f  %8.3f%s\n", day, sum/float64(len(windows)), note)
	}

	// The attacker cannot trigger retraining: his scores are negative.
	attacker := pop.Users[2]
	attackerWindows, err := collectAtDay(attacker, 12, 300)
	if err != nil {
		return err
	}
	var atkSum float64
	for _, w := range attackerWindows {
		d, err := auth.Authenticate(w)
		if err != nil {
			return err
		}
		atkSum += d.Score
		if _, drifted := monitor.Observe(owner.ID, d.Score, d.Accepted, dayTime(12)); drifted {
			return errors.New("attacker must not trigger retraining")
		}
	}
	fmt.Printf("\nattacker mean confidence score at day 12: %.3f (never triggers retraining)\n",
		atkSum/float64(len(attackerWindows)))
	return nil
}

// dayTime is the monitor's clock: simulated days since enrollment.
func dayTime(day float64) time.Time {
	return time.Unix(0, 0).Add(time.Duration(day * 24 * float64(time.Hour)))
}

// collectAtDay records seconds of usage (both contexts) at a drift day.
func collectAtDay(u *smarteryou.User, day, seconds float64) ([]smarteryou.WindowSample, error) {
	var out []smarteryou.WindowSample
	for ci, ctx := range []smarteryou.Context{smarteryou.ContextStationaryUse, smarteryou.ContextMovingUse} {
		samples, err := smarteryou.Record(smarteryou.Session{
			User:    u,
			Context: ctx,
			Day:     day,
			Seconds: seconds / 2,
			Seed:    int64(day*1000) + int64(ci)*17 + 3,
		}, 6)
		if err != nil {
			return nil, err
		}
		out = append(out, samples...)
	}
	return out, nil
}
