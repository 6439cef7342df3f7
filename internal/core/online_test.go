package core

import (
	"testing"

	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
)

func TestTrainOnlineBasicAuthentication(t *testing.T) {
	f := newFixture(t, 5, 90)
	legit := f.perUser[0]
	impostor := f.impostors(0)
	online, err := TrainOnline(f.detector, legit, impostor, OnlineConfig{
		Mode: Mode{Combined: true, UseContext: true},
		Seed: 3,
	})
	if err != nil {
		t.Fatalf("TrainOnline: %v", err)
	}
	accepted := 0
	for _, s := range legit {
		d, err := online.Authenticate(s)
		if err != nil {
			t.Fatalf("Authenticate: %v", err)
		}
		if d.Accepted {
			accepted++
		}
	}
	if frac := float64(accepted) / float64(len(legit)); frac < 0.9 {
		t.Errorf("owner accepted in %v of windows, want >= 0.9", frac)
	}
	rejected := 0
	for _, s := range f.perUser[1][:40] {
		d, err := online.Authenticate(s)
		if err != nil {
			t.Fatalf("Authenticate: %v", err)
		}
		if !d.Accepted {
			rejected++
		}
	}
	if rejected < 30 {
		t.Errorf("impostor rejected in only %d/40 windows", rejected)
	}
}

func TestTrainOnlineValidation(t *testing.T) {
	f := newFixture(t, 3, 30)
	if _, err := TrainOnline(f.detector, nil, f.perUser[1], OnlineConfig{}); err == nil {
		t.Errorf("missing legit data should error")
	}
	if _, err := TrainOnline(f.detector, f.perUser[0], nil, OnlineConfig{}); err == nil {
		t.Errorf("missing impostor data should error")
	}
	if _, err := TrainOnline(nil, f.perUser[0], f.perUser[1], OnlineConfig{
		Mode: Mode{UseContext: true},
	}); err == nil {
		t.Errorf("context mode without detector should error")
	}
}

func TestOnlineAdaptSlidesWindow(t *testing.T) {
	f := newFixture(t, 3, 60)
	online, err := TrainOnline(f.detector, f.perUser[0], f.impostors(0), OnlineConfig{
		Mode:   Mode{Combined: true, UseContext: true},
		Window: 20,
		Seed:   1,
	})
	if err != nil {
		t.Fatalf("TrainOnline: %v", err)
	}
	before := online.RetainedWindows()
	for _, s := range f.perUser[0][:30] {
		if err := online.Adapt(s); err != nil {
			t.Fatalf("Adapt: %v", err)
		}
	}
	after := online.RetainedWindows()
	for key, n := range after {
		if n > 20 {
			t.Errorf("context %q retains %d windows, want <= 20", key, n)
		}
		if before[key] > 20 {
			t.Errorf("initial %q retention %d exceeds window", key, before[key])
		}
	}
}

// TestOnlineAdaptationTracksDrift is the unlearning payoff: after two
// weeks of drift, a model that adapted day by day scores the current
// behaviour higher than the frozen day-0 model.
func TestOnlineAdaptationTracksDrift(t *testing.T) {
	pop, err := sensing.NewPopulation(5, 808)
	if err != nil {
		t.Fatalf("NewPopulation: %v", err)
	}
	user := pop.Users[0]
	collectAt := func(day float64, seed int64) []features.WindowSample {
		var out []features.WindowSample
		for ci, ctx := range []sensing.Context{sensing.ContextStationaryUse, sensing.ContextMovingUse} {
			got, err := features.Record(sensing.Session{User: user, Context: ctx, Day: day, Seconds: 120, Seed: seed + int64(ci)}, 6)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, got...)
		}
		return out
	}

	var impostor []features.WindowSample
	for i := 1; i < len(pop.Users); i++ {
		samples, err := features.Collect(pop.Users[i], features.CollectOptions{
			WindowSeconds: 6, SessionSeconds: 120, Sessions: 1, Seed: int64(900 + i),
		})
		if err != nil {
			t.Fatalf("Collect impostor: %v", err)
		}
		impostor = append(impostor, samples...)
	}

	enroll := collectAt(0, 1000)
	cfg := OnlineConfig{Mode: Mode{Combined: true, UseContext: false}, Window: 40, Seed: 5}
	adaptive, err := TrainOnline(nil, enroll, impostor, cfg)
	if err != nil {
		t.Fatalf("TrainOnline adaptive: %v", err)
	}
	frozen, err := TrainOnline(nil, enroll, impostor, cfg)
	if err != nil {
		t.Fatalf("TrainOnline frozen: %v", err)
	}

	// Day-by-day usage: the device stays unlocked, so every owner window
	// adapts the model (session-level gating).
	for day := 1.0; day <= 12; day++ {
		for _, s := range collectAt(day, 2000+int64(day)*17) {
			if err := adaptive.Adapt(s); err != nil {
				t.Fatalf("Adapt: %v", err)
			}
		}
	}

	test := collectAt(13, 99991)
	meanScore := func(o *OnlineAuthenticator) float64 {
		var sum float64
		for _, s := range test {
			d, err := o.Authenticate(s)
			if err != nil {
				t.Fatalf("Authenticate: %v", err)
			}
			sum += d.Score
		}
		return sum / float64(len(test))
	}
	adaptiveScore, frozenScore := meanScore(adaptive), meanScore(frozen)
	if adaptiveScore <= frozenScore {
		t.Errorf("adaptive model (%v) should track drift better than frozen (%v)", adaptiveScore, frozenScore)
	}

	// Security invariant: an impostor must still be rejected by the
	// adapted model.
	rejected := 0
	probe := impostor[:40]
	for _, s := range probe {
		d, err := adaptive.Authenticate(s)
		if err != nil {
			t.Fatalf("Authenticate: %v", err)
		}
		if !d.Accepted {
			rejected++
		}
	}
	if rejected < 32 {
		t.Errorf("adapted model rejects only %d/40 impostor windows", rejected)
	}
}
