// Continuous authentication with the response module: the owner uses the
// phone (stationary, then walking), then the phone is snatched by a thief
// who tries to keep using it. The response module denies access and locks
// the device within a few windows. Every decision goes into a
// tamper-evident audit log whose hash chain is verified at the end; the
// program exits non-zero if the thief is not locked or the chain breaks.
package main

import (
	"errors"
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
	pop, err := smarteryou.NewPopulation(8, 7)
	if err != nil {
		return err
	}
	owner, thief := pop.Users[0], pop.Users[5]

	auth, err := buildAuthenticator(pop, owner)
	if err != nil {
		return err
	}
	response := smarteryou.NewResponseModule(smarteryou.ResponsePolicy{
		DenyAfter: 1, // one rejected window denies critical-data access
		LockAfter: 3, // three in a row lock the device (18 s at 6 s windows)
	})
	audit := smarteryou.NewAuditLog()

	// Timeline: owner stationary -> owner walking -> THEFT -> thief walking.
	type phase struct {
		who     *smarteryou.User
		label   string
		context smarteryou.Context
		seconds float64
		seed    int64
	}
	timeline := []phase{
		{owner, "owner sitting", smarteryou.ContextStationaryUse, 60, 11},
		{owner, "owner walking", smarteryou.ContextMovingUse, 60, 12},
		{thief, "THIEF walking", smarteryou.ContextMovingUse, 60, 13},
	}

	clock := 0.0
	for _, p := range timeline {
		fmt.Printf("\n--- %s ---\n", p.label)
		samples, err := collect(p.who, p.context, p.seconds, p.seed)
		if err != nil {
			return err
		}
		for _, s := range samples {
			d, err := auth.Authenticate(s)
			if err != nil {
				return err
			}
			action := response.Observe(d)
			clock += 6
			audit.Append(clock, d, action)
			fmt.Printf("t=%4.0fs ctx=%-10v score=%+6.2f accepted=%-5v -> %v\n",
				clock, d.Context, d.Score, d.Accepted, action)
			if action == smarteryou.ActionLock {
				fmt.Println("device locked: explicit re-authentication required")
				break
			}
		}
		if response.Locked() {
			break
		}
	}
	if !response.Locked() {
		return errors.New("expected the thief to be locked out")
	}

	// The owner unlocks explicitly (password / fingerprint) and continues.
	response.Unlock()
	fmt.Println("\n--- owner back after explicit unlock ---")
	back, err := collect(owner, smarteryou.ContextStationaryUse, 30, 14)
	if err != nil {
		return err
	}
	for i, s := range back {
		d, err := auth.Authenticate(s)
		if err != nil {
			return err
		}
		action := response.Observe(d)
		clock += 6
		audit.Append(clock, d, action)
		fmt.Printf("window %d: accepted=%v -> %v\n", i, d.Accepted, action)
	}

	if bad := smarteryou.VerifyAuditChain(audit.Entries()); bad >= 0 {
		return fmt.Errorf("audit chain broken at entry %d", bad)
	}
	fmt.Printf("\naudit log: %d entries, hash chain verified\n", audit.Len())
	return nil
}

// buildAuthenticator trains the full stack for the owner against the rest
// of the cohort.
func buildAuthenticator(pop *smarteryou.Population, owner *smarteryou.User) (*smarteryou.Authenticator, error) {
	ownerData, err := smarteryou.Collect(owner, smarteryou.CollectOptions{
		WindowSeconds: 6, SessionSeconds: 120, Sessions: 3, Days: 13, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	var impostorData []smarteryou.WindowSample
	for i, u := range pop.Users {
		if u == owner {
			continue
		}
		samples, err := smarteryou.Collect(u, smarteryou.CollectOptions{
			WindowSeconds: 6, SessionSeconds: 120, Sessions: 2, Seed: int64(200 + i),
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
	bundle, err := smarteryou.Train(ownerData, impostorData, smarteryou.TrainConfig{
		Mode: smarteryou.Mode{Combined: true, UseContext: true},
		Seed: 3,
	})
	if err != nil {
		return nil, err
	}
	return smarteryou.NewAuthenticator(det, bundle)
}

// collect records one session and returns its feature windows.
func collect(u *smarteryou.User, ctx smarteryou.Context, seconds float64, seed int64) ([]smarteryou.WindowSample, error) {
	return smarteryou.Collect(u, smarteryou.CollectOptions{
		WindowSeconds:  6,
		SessionSeconds: seconds,
		Sessions:       1,
		Contexts:       []smarteryou.Context{ctx},
		Seed:           seed,
	})
}
