package core

import (
	"errors"
	"testing"

	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
	"smarteryou/internal/stats"
)

// testFixture builds a small end-to-end dataset: a population, collected
// windows per user, a context detector trained on non-target users, and
// train/test splits for the target user.
type testFixture struct {
	pop      *sensing.Population
	perUser  [][]features.WindowSample
	detector *ctxdetect.Detector
}

func newFixture(t *testing.T, users int, sessionSeconds float64) *testFixture {
	t.Helper()
	pop, err := sensing.NewPopulation(users, 999)
	if err != nil {
		t.Fatalf("NewPopulation: %v", err)
	}
	f := &testFixture{pop: pop, perUser: make([][]features.WindowSample, users)}
	for i, u := range pop.Users {
		samples, err := features.Collect(u, features.CollectOptions{
			WindowSeconds:  6,
			SessionSeconds: sessionSeconds,
			Sessions:       2,
			Seed:           int64(3000 + i*17),
		})
		if err != nil {
			t.Fatalf("Collect(%d): %v", i, err)
		}
		f.perUser[i] = samples
	}
	// Context detector trained on everyone but user 0 (user-agnostic).
	var ctxTrain []features.WindowSample
	for i := 1; i < users; i++ {
		ctxTrain = append(ctxTrain, f.perUser[i]...)
	}
	f.detector, err = ctxdetect.Train(ctxdetect.FromSamples(ctxTrain), ctxdetect.Config{Seed: 1})
	if err != nil {
		t.Fatalf("ctxdetect.Train: %v", err)
	}
	return f
}

// split splits samples into alternating train/test halves.
func split(samples []features.WindowSample) (train, test []features.WindowSample) {
	for i, s := range samples {
		if i%2 == 0 {
			train = append(train, s)
		} else {
			test = append(test, s)
		}
	}
	return train, test
}

func (f *testFixture) impostors(except int) []features.WindowSample {
	var out []features.WindowSample
	for i, samples := range f.perUser {
		if i != except {
			out = append(out, samples...)
		}
	}
	return out
}

// measure authenticates every test window and tallies FRR/FAR/accuracy.
func measure(t *testing.T, a *Authenticator, legit, impostor []features.WindowSample) stats.AuthMetrics {
	t.Helper()
	var m stats.AuthMetrics
	observe := func(samples []features.WindowSample, legitimate bool) {
		for _, s := range samples {
			d, err := a.Authenticate(s)
			if err != nil {
				t.Fatalf("Authenticate: %v", err)
			}
			m.Observe(legitimate, d.Accepted)
		}
	}
	observe(legit, true)
	observe(impostor, false)
	return m
}

func TestEndToEndAuthentication(t *testing.T) {
	f := newFixture(t, 6, 90)
	legitTrain, legitTest := split(f.perUser[0])
	impTrain, impTest := split(f.impostors(0))

	bundle, err := Train(legitTrain, impTrain, TrainConfig{
		Mode: Mode{Combined: true, UseContext: true},
		Seed: 7,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	auth, err := NewAuthenticator(f.detector, bundle)
	if err != nil {
		t.Fatalf("NewAuthenticator: %v", err)
	}
	m := measure(t, auth, legitTest, impTest)
	if m.Accuracy() < 0.9 {
		t.Errorf("end-to-end accuracy = %v, want >= 0.9 (paper: 0.981)", m.Accuracy())
	}
	if m.FAR() > 0.1 {
		t.Errorf("FAR = %v, want <= 0.1", m.FAR())
	}
}

func TestContextModelsBeatUnified(t *testing.T) {
	f := newFixture(t, 6, 90)
	legitTrain, legitTest := split(f.perUser[0])
	impTrain, impTest := split(f.impostors(0))

	run := func(mode Mode) float64 {
		bundle, err := Train(legitTrain, impTrain, TrainConfig{Mode: mode, Seed: 7})
		if err != nil {
			t.Fatalf("Train(%v): %v", mode, err)
		}
		auth, err := NewAuthenticator(f.detector, bundle)
		if err != nil {
			t.Fatalf("NewAuthenticator: %v", err)
		}
		return measure(t, auth, legitTest, impTest).Accuracy()
	}
	withCtx := run(Mode{Combined: true, UseContext: true})
	unified := run(Mode{Combined: true, UseContext: false})
	if withCtx < unified-0.02 {
		t.Errorf("context models (%v) should not be materially worse than unified (%v)", withCtx, unified)
	}
}

func TestTrainErrors(t *testing.T) {
	f := newFixture(t, 3, 30)
	if _, err := Train(nil, f.perUser[1], TrainConfig{}); err == nil {
		t.Errorf("no legit data should error")
	}
	if _, err := Train(f.perUser[0], nil, TrainConfig{}); err == nil {
		t.Errorf("no impostor data should error")
	}
	// Context mode with data from only one context cannot train both
	// models but must train the one it can.
	stationaryOnly := func(in []features.WindowSample) []features.WindowSample {
		var out []features.WindowSample
		for _, s := range in {
			if s.Context.Coarse() == sensing.CoarseStationary {
				out = append(out, s)
			}
		}
		return out
	}
	bundle, err := Train(stationaryOnly(f.perUser[0]), stationaryOnly(f.perUser[1]),
		TrainConfig{Mode: Mode{UseContext: true}})
	if err != nil {
		t.Fatalf("partial-context Train: %v", err)
	}
	if _, err := bundle.ModelFor(sensing.CoarseMoving); !errors.Is(err, ErrNoModel) {
		t.Errorf("missing moving model err = %v, want ErrNoModel", err)
	}
	if _, err := bundle.ModelFor(sensing.CoarseStationary); err != nil {
		t.Errorf("stationary model should exist: %v", err)
	}
}

// TestDetectorLabelsDecideTheTrainingGroup pins the labelling step the
// experiment harness trains from: a window whose recorded context
// contradicts the detector trains in the detector's group.
func TestDetectorLabelsDecideTheTrainingGroup(t *testing.T) {
	f := newFixture(t, 3, 60)
	// Every window of user 0 is recorded as stationary, the moving ones
	// included, so by the recorded label no moving model trains.
	legit := append([]features.WindowSample(nil), f.perUser[0]...)
	for i := range legit {
		legit[i].Context = sensing.ContextStationaryUse
	}
	cfg := TrainConfig{Mode: Mode{UseContext: true}, Seed: 1}
	bundle, err := Train(legit, f.impostors(0), cfg)
	if err != nil {
		t.Fatalf("Train on recorded labels: %v", err)
	}
	if _, ok := bundle.Models[sensing.CoarseMoving.String()]; ok {
		t.Fatalf("recorded labels trained a moving model")
	}

	labelled, err := f.detector.Label(legit)
	if err != nil {
		t.Fatalf("Label: %v", err)
	}
	contradicted := 0
	for i, w := range labelled {
		det, err := f.detector.Detect(legit[i].Phone)
		if err != nil {
			t.Fatalf("Detect: %v", err)
		}
		if w.Context.Coarse() != det.Context {
			t.Errorf("window %d labelled %v, detector says %v", i, w.Context, det.Context)
		}
		if det.Context != legit[i].Context.Coarse() {
			contradicted++
		}
		if legit[i].Context != sensing.ContextStationaryUse {
			t.Fatalf("Label modified its input")
		}
	}
	if contradicted == 0 {
		t.Fatalf("no window contradicts the detector; the fixture tests nothing")
	}
	bundle, err = Train(labelled, f.impostors(0), cfg)
	if err != nil {
		t.Fatalf("Train on detector labels: %v", err)
	}
	if _, ok := bundle.Models[sensing.CoarseMoving.String()]; !ok {
		t.Errorf("windows the detector calls moving trained no moving model")
	}
}

func TestTrainMaxPerClass(t *testing.T) {
	f := newFixture(t, 3, 60)
	bundle, err := Train(f.perUser[0], f.impostors(0), TrainConfig{
		Mode:        Mode{Combined: true, UseContext: false},
		MaxPerClass: 5,
		Seed:        3,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	// The model must still function after aggressive subsampling.
	auth, err := NewAuthenticator(nil, bundle)
	if err != nil {
		t.Fatalf("NewAuthenticator: %v", err)
	}
	if _, err := auth.Authenticate(f.perUser[0][0]); err != nil {
		t.Errorf("Authenticate after subsampled training: %v", err)
	}
}

func TestModelBundleSerialization(t *testing.T) {
	f := newFixture(t, 3, 60)
	bundle, err := Train(f.perUser[0], f.impostors(0), TrainConfig{
		Mode: Mode{Combined: true, UseContext: true},
		Seed: 11,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	blob, err := bundle.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	restored, err := UnmarshalModelBundle(blob)
	if err != nil {
		t.Fatalf("UnmarshalModelBundle: %v", err)
	}
	if restored.Mode != bundle.Mode {
		t.Errorf("restored mode = %v, want %v", restored.Mode, bundle.Mode)
	}
	// Scores must survive the round trip bit-for-bit.
	sample := f.perUser[0][0]
	orig, err := bundle.Models[sample.Context.Coarse().String()].Score(sample.Vector(true))
	if err != nil {
		t.Fatalf("orig Score: %v", err)
	}
	rest, err := restored.Models[sample.Context.Coarse().String()].Score(sample.Vector(true))
	if err != nil {
		t.Fatalf("restored Score: %v", err)
	}
	if orig != rest {
		t.Errorf("restored score %v != original %v", rest, orig)
	}
}

func TestUnmarshalModelBundleRejectsIncomplete(t *testing.T) {
	if _, err := UnmarshalModelBundle([]byte(`{"models":{"unified":{}}}`)); err == nil {
		t.Errorf("incomplete model entry should fail")
	}
	if _, err := UnmarshalModelBundle([]byte(`nope`)); err == nil {
		t.Errorf("invalid json should fail")
	}
}

func TestNewAuthenticatorValidation(t *testing.T) {
	if _, err := NewAuthenticator(nil, nil); err == nil {
		t.Errorf("nil bundle should error")
	}
	bundle := &ModelBundle{
		Mode:   Mode{UseContext: true},
		Models: map[string]*ContextModel{"stationary": {}},
	}
	if _, err := NewAuthenticator(nil, bundle); err == nil {
		t.Errorf("context bundle without detector should error")
	}
}

func TestSwapBundle(t *testing.T) {
	f := newFixture(t, 3, 60)
	mode := Mode{Combined: true, UseContext: false}
	b1, err := Train(f.perUser[0], f.impostors(0), TrainConfig{Mode: mode, Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	auth, err := NewAuthenticator(nil, b1)
	if err != nil {
		t.Fatalf("NewAuthenticator: %v", err)
	}
	b2, err := Train(f.perUser[0], f.impostors(0), TrainConfig{Mode: mode, Seed: 2})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if err := auth.SwapBundle(b2); err != nil {
		t.Fatalf("SwapBundle: %v", err)
	}
	if err := auth.SwapBundle(nil); err == nil {
		t.Errorf("swapping in nil bundle should error")
	}
	if auth.Mode() != mode {
		t.Errorf("Mode = %v, want %v", auth.Mode(), mode)
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{
		{Combined: false, UseContext: false}: "w/o context smartphone",
		{Combined: true, UseContext: false}:  "w/o context combination",
		{Combined: false, UseContext: true}:  "w/ context smartphone",
		{Combined: true, UseContext: true}:   "w/ context combination",
	}
	for mode, want := range cases {
		if got := mode.String(); got != want {
			t.Errorf("Mode%+v.String() = %q, want %q", mode, got, want)
		}
	}
}
