// Continuous authentication with the response module: the owner uses the
// phone (stationary, then walking), then the phone is snatched by a thief
// who tries to keep using it. The response module denies access and locks
// the device within a few windows. Every decision goes into a
// tamper-evident audit log whose hash chain is verified at the end; the
// program exits non-zero if the thief is not locked or the chain breaks.
package main

import (
	"fmt"
	"log"

	"smarteryou"
)

func main() {
	pop, err := smarteryou.NewPopulation(8, 7)
	if err != nil {
		log.Fatal(err)
	}
	owner, thief := pop.Users[0], pop.Users[5]

	auth := buildAuthenticator(pop, owner)
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
		samples := collect(p.who, p.context, p.seconds, p.seed)
		for _, s := range samples {
			d, err := auth.Authenticate(s)
			if err != nil {
				log.Fatal(err)
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
		log.Fatal("expected the thief to be locked out")
	}

	// The owner unlocks explicitly (password / fingerprint) and continues.
	response.Unlock()
	fmt.Println("\n--- owner back after explicit unlock ---")
	for i, s := range collect(owner, smarteryou.ContextStationaryUse, 30, 14) {
		d, err := auth.Authenticate(s)
		if err != nil {
			log.Fatal(err)
		}
		action := response.Observe(d)
		clock += 6
		audit.Append(clock, d, action)
		fmt.Printf("window %d: accepted=%v -> %v\n", i, d.Accepted, action)
	}

	if bad := smarteryou.VerifyAuditChain(audit.Entries()); bad >= 0 {
		log.Fatalf("audit chain broken at entry %d", bad)
	}
	fmt.Printf("\naudit log: %d entries, hash chain verified\n", audit.Len())
}

// buildAuthenticator trains the full stack for the owner against the rest
// of the cohort.
func buildAuthenticator(pop *smarteryou.Population, owner *smarteryou.User) *smarteryou.Authenticator {
	ownerData, err := smarteryou.Collect(owner, smarteryou.CollectOptions{
		WindowSeconds: 6, SessionSeconds: 120, Sessions: 3, Days: 13, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
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
			log.Fatal(err)
		}
		impostorData = append(impostorData, samples...)
	}
	det, err := smarteryou.TrainContextDetector(
		smarteryou.ContextTrainingData(impostorData), smarteryou.DetectorConfig{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	bundle, err := smarteryou.Train(ownerData, impostorData, smarteryou.TrainConfig{
		Mode: smarteryou.Mode{Combined: true, UseContext: true},
		Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	auth, err := smarteryou.NewAuthenticator(det, bundle)
	if err != nil {
		log.Fatal(err)
	}
	return auth
}

// collect records one session and returns its feature windows.
func collect(u *smarteryou.User, ctx smarteryou.Context, seconds float64, seed int64) []smarteryou.WindowSample {
	samples, err := smarteryou.Collect(u, smarteryou.CollectOptions{
		WindowSeconds:  6,
		SessionSeconds: seconds,
		Sessions:       1,
		Contexts:       []smarteryou.Context{ctx},
		Seed:           seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	return samples
}
