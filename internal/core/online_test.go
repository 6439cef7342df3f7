package core

import (
	"errors"
	"math"
	"testing"

	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
)

func TestTrainOnlineBasicAuthentication(t *testing.T) {
	f := newFixture(t, 5, 90)
	legit := f.perUser[0]
	impostor := f.impostors(0)
	online, err := TrainOnline(f.detector, legit, impostor, TrainConfig{
		Mode:        Mode{Combined: true, UseContext: true},
		MaxPerClass: 400,
		Seed:        3,
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
	if _, err := TrainOnline(f.detector, nil, f.perUser[1], TrainConfig{MaxPerClass: 400}); err == nil {
		t.Errorf("missing legit data should error")
	}
	if _, err := TrainOnline(f.detector, f.perUser[0], nil, TrainConfig{MaxPerClass: 400}); err == nil {
		t.Errorf("missing impostor data should error")
	}
	if _, err := TrainOnline(nil, f.perUser[0], f.perUser[1], TrainConfig{
		Mode: Mode{UseContext: true}, MaxPerClass: 400,
	}); err == nil {
		t.Errorf("context mode without detector should error")
	}
	if _, err := TrainOnline(f.detector, f.perUser[0], f.perUser[1], TrainConfig{}); err == nil {
		t.Errorf("MaxPerClass 0 (no retention window) should error")
	}
}

func TestOnlineAdaptSlidesWindow(t *testing.T) {
	f := newFixture(t, 3, 60)
	online, err := TrainOnline(f.detector, f.perUser[0], f.impostors(0), TrainConfig{
		Mode:        Mode{Combined: true, UseContext: true},
		MaxPerClass: 20,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("TrainOnline: %v", err)
	}
	before := online.retainedWindows()
	for _, s := range f.perUser[0][:30] {
		if err := online.Adapt(s); err != nil {
			t.Fatalf("Adapt: %v", err)
		}
	}
	after := online.retainedWindows()
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
	cfg := TrainConfig{Mode: Mode{Combined: true, UseContext: false}, MaxPerClass: 40, Seed: 5}
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

// TestOnlineAtDayZeroIsTheServedModel: before any Adapt, the online
// authenticator is the model Train serves, window for window, also when
// a context holds fewer windows of a class than MaxPerClass.
func TestOnlineAtDayZeroIsTheServedModel(t *testing.T) {
	f := newFixture(t, 5, 60)
	legit, impostor := f.perUser[0], f.impostors(0)
	cfg := TrainConfig{Mode: Mode{Combined: true, UseContext: true}, MaxPerClass: 100, Seed: 7}
	if n := len(legit); n >= cfg.MaxPerClass {
		t.Fatalf("fixture has %d legitimate windows, want fewer than MaxPerClass", n)
	}
	online, err := TrainOnline(f.detector, legit, impostor, cfg)
	if err != nil {
		t.Fatalf("TrainOnline: %v", err)
	}
	bundle, err := Train(legit, impostor, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	served, err := NewAuthenticator(f.detector, bundle)
	if err != nil {
		t.Fatalf("NewAuthenticator: %v", err)
	}
	for i, s := range append(append([]features.WindowSample(nil), legit...), impostor...) {
		want, err := served.Authenticate(s)
		if err != nil {
			t.Fatalf("served Authenticate: %v", err)
		}
		got, err := online.Authenticate(s)
		if err != nil {
			t.Fatalf("online Authenticate: %v", err)
		}
		if got.Accepted != want.Accepted || math.Abs(got.Score-want.Score) > 1e-9 {
			t.Errorf("window %d: online %+v, served %+v", i, got, want)
		}
	}
}

// TestOnlineFallsBackToTheFirstModel: a context with no enrollment data
// uses the first model in ModelKeys order, for Authenticate and Adapt
// alike; the served Authenticator has no model for it.
func TestOnlineFallsBackToTheFirstModel(t *testing.T) {
	f := newFixture(t, 3, 60)
	stationaryOnly := func(in []features.WindowSample) []features.WindowSample {
		var out []features.WindowSample
		for _, s := range in {
			if s.Context.Coarse() == sensing.CoarseStationary {
				out = append(out, s)
			}
		}
		return out
	}
	legit, impostor := stationaryOnly(f.perUser[0]), stationaryOnly(f.impostors(0))
	cfg := TrainConfig{Mode: Mode{Combined: true, UseContext: true}, MaxPerClass: 40, Seed: 1}
	online, err := TrainOnline(f.detector, legit, impostor, cfg)
	if err != nil {
		t.Fatalf("TrainOnline: %v", err)
	}
	stationary := online.models[sensing.CoarseStationary.String()]
	var moving features.WindowSample
	found := false
	for _, s := range f.perUser[0] {
		det, err := f.detector.Detect(s.Phone)
		if err != nil {
			t.Fatalf("Detect: %v", err)
		}
		if det.Context == sensing.CoarseMoving {
			moving, found = s, true
			break
		}
	}
	if !found {
		t.Fatalf("the detector calls no window moving; the fixture tests nothing")
	}

	d, err := online.Authenticate(moving)
	if err != nil {
		t.Fatalf("Authenticate a moving window: %v", err)
	}
	want, err := stationary.Score(moving.Vector(true), nil)
	if err != nil {
		t.Fatalf("stationary Score: %v", err)
	}
	if d.Context != sensing.CoarseMoving || d.Score != want {
		t.Errorf("moving window decided %+v, want context moving and the stationary score %v", d, want)
	}

	before := len(stationary.Clf.legit)
	if err := online.Adapt(moving); err != nil {
		t.Fatalf("Adapt a moving window: %v", err)
	}
	if got := len(stationary.Clf.legit); got != before+1 {
		t.Errorf("stationary model retains %d windows after adapting a moving one, want %d", got, before+1)
	}

	bundle, err := Train(legit, impostor, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	served, err := NewAuthenticator(f.detector, bundle)
	if err != nil {
		t.Fatalf("NewAuthenticator: %v", err)
	}
	if _, err := served.Authenticate(moving); !errors.Is(err, ErrNoModel) {
		t.Errorf("served Authenticate of a moving window: err = %v, want ErrNoModel", err)
	}
}
