// Package attack implements the masquerading-attack evaluation of Section
// V-G: adversaries who have watched (and recorded) the victim using the
// device attempt to mimic the victim's behaviour, and the metric is how
// long each attacker retains access before SmarterYou de-authenticates him
// — the survival curve of Fig. 6.
package attack

import (
	"fmt"
	"math/rand"

	"smarteryou/internal/core"
	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
)

// Scenario describes one masquerading campaign against a single victim.
type Scenario struct {
	// Victim is the device owner whose model is installed.
	Victim *sensing.User
	// Attackers are the users attempting the mimicry.
	Attackers []*sensing.User
	// Fidelity is how faithfully attackers reproduce the victim's visible
	// behaviour (Section V-G has them study a video recording; we default
	// to 0.9 — near-perfect imitation of everything consciously
	// controllable).
	Fidelity float64
	// Context under which the attack happens (the attacker performs the
	// same task as the victim; default moving-use).
	Context sensing.Context
	// WindowSeconds is the authentication cadence (default 6).
	WindowSeconds float64
	// HorizonSeconds is how long each attack is observed (default 60).
	HorizonSeconds float64
	// Trials is the number of repetitions per attacker (the paper repeats
	// each attack 20 times).
	Trials int
	// Seed drives the synthetic sessions.
	Seed int64
}

func (s Scenario) withDefaults() Scenario {
	if s.Fidelity == 0 {
		s.Fidelity = 0.9
	}
	if s.Context == 0 {
		s.Context = sensing.ContextMovingUse
	}
	if s.WindowSeconds == 0 {
		s.WindowSeconds = 6
	}
	if s.HorizonSeconds == 0 {
		s.HorizonSeconds = 60
	}
	if s.Trials == 0 {
		s.Trials = 20
	}
	return s
}

// Result is the outcome of a masquerading campaign.
type Result struct {
	// SurvivalTimes holds, per attack trial, the time in seconds until the
	// attacker was first rejected (de-authenticated). Trials where the
	// attacker was never rejected within the horizon record the horizon.
	SurvivalTimes []float64
	// Horizon echoes the observation horizon.
	Horizon float64
	// Window echoes the authentication cadence.
	Window float64
}

// SurvivalCurve returns, for each authentication instant t = window,
// 2*window, ..., horizon, the fraction of attack trials still holding
// access at that time — exactly the y-axis of Fig. 6.
func (r Result) SurvivalCurve() (times, fractions []float64) {
	if r.Window <= 0 || len(r.SurvivalTimes) == 0 {
		return nil, nil
	}
	for t := r.Window; t <= r.Horizon+1e-9; t += r.Window {
		surviving := 0
		for _, st := range r.SurvivalTimes {
			// An attacker de-authenticated at the window ending at time st
			// has lost access AT st, so survival requires st > t (with the
			// never-caught case st == horizon surviving throughout).
			if st > t || st >= r.Horizon {
				surviving++
			}
		}
		times = append(times, t)
		fractions = append(fractions, float64(surviving)/float64(len(r.SurvivalTimes)))
	}
	return times, fractions
}

// MeanDetectionSeconds returns the average time to de-authentication.
func (r Result) MeanDetectionSeconds() float64 {
	if len(r.SurvivalTimes) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range r.SurvivalTimes {
		s += t
	}
	return s / float64(len(r.SurvivalTimes))
}

// FractionDetectedBy returns the fraction of trials de-authenticated at or
// before t seconds.
func (r Result) FractionDetectedBy(t float64) float64 {
	if len(r.SurvivalTimes) == 0 {
		return 0
	}
	n := 0
	for _, st := range r.SurvivalTimes {
		if st <= t && st < r.Horizon {
			n++
		}
	}
	return float64(n) / float64(len(r.SurvivalTimes))
}

// Run executes the campaign against an installed authenticator. The
// authenticator must have been trained for the victim (the attack model:
// the device is already unlocked and running the victim's models).
func Run(auth *core.Authenticator, s Scenario) (Result, error) {
	s = s.withDefaults()
	if s.Victim == nil {
		return Result{}, fmt.Errorf("attack: scenario has no victim")
	}
	if len(s.Attackers) == 0 {
		return Result{}, fmt.Errorf("attack: scenario has no attackers")
	}
	if auth == nil {
		return Result{}, fmt.Errorf("attack: nil authenticator")
	}
	rng := rand.New(rand.NewSource(s.Seed))
	res := Result{Horizon: s.HorizonSeconds, Window: s.WindowSeconds}
	victimParams := s.Victim.Params

	for _, attacker := range s.Attackers {
		for trial := 0; trial < s.Trials; trial++ {
			sess := sensing.Session{
				User:          attacker,
				Context:       s.Context,
				Seconds:       s.HorizonSeconds,
				Seed:          rng.Int63(),
				MimicOf:       &victimParams,
				MimicFidelity: s.Fidelity,
			}
			survival, err := runTrial(auth, sess, s.WindowSeconds)
			if err != nil {
				return Result{}, fmt.Errorf("attack: attacker %s trial %d: %w", attacker.ID, trial, err)
			}
			res.SurvivalTimes = append(res.SurvivalTimes, survival)
		}
	}
	return res, nil
}

// runTrial plays one mimicry session through the authenticator window by
// window and returns the time of first rejection (or the horizon).
func runTrial(auth *core.Authenticator, sess sensing.Session, window float64) (float64, error) {
	samples, err := features.Record(sess, window)
	if err != nil {
		return 0, err
	}
	for k, sample := range samples {
		d, err := auth.Authenticate(sample)
		if err != nil {
			return 0, err
		}
		if !d.Accepted {
			// De-authenticated at the end of window k.
			return float64(k+1) * window, nil
		}
	}
	return sess.Seconds, nil
}
