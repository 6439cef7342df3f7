package features

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"smarteryou/internal/sensing"
)

func TestExtractSensorKnownSignal(t *testing.T) {
	const rate = 50.0
	n := 300 // 6 s window
	w := make([]float64, n)
	for i := range w {
		ts := float64(i) / rate
		w[i] = 10 + 2*math.Sin(2*math.Pi*2*ts) // DC 10, 2 Hz amplitude 2
	}
	f, err := NewExtractor().ExtractSensor(w, rate)
	if err != nil {
		t.Fatalf("ExtractSensor: %v", err)
	}
	if math.Abs(f.Mean-10) > 0.05 {
		t.Errorf("Mean = %v, want ~10", f.Mean)
	}
	if math.Abs(f.PeakF-2) > 0.2 {
		t.Errorf("PeakF = %v, want ~2", f.PeakF)
	}
	if math.Abs(f.Peak-2) > 0.2 {
		t.Errorf("Peak = %v, want ~2", f.Peak)
	}
	if math.Abs(f.Max-12) > 0.1 || math.Abs(f.Min-8) > 0.1 {
		t.Errorf("Max/Min = %v/%v, want ~12/~8", f.Max, f.Min)
	}
	if math.Abs(f.Ran-(f.Max-f.Min)) > 1e-12 {
		t.Errorf("Ran = %v, want Max-Min = %v", f.Ran, f.Max-f.Min)
	}
}

func TestExtractSensorEmpty(t *testing.T) {
	if _, err := NewExtractor().ExtractSensor(nil, 50); err == nil {
		t.Fatalf("empty window should error")
	}
}

func TestFeatureVectorShapes(t *testing.T) {
	var d DeviceFeatures
	if got := len(d.AuthVector()); got != 14 {
		t.Errorf("AuthVector length = %d, want 14", got)
	}
	if got := len(d.FullVector()); got != 18 {
		t.Errorf("FullVector length = %d, want 18", got)
	}
	if got := len(d.AccOnlyVector()); got != 7 {
		t.Errorf("AccOnlyVector length = %d, want 7", got)
	}
	if got := len(CombinedAuthVector(d, d)); got != 28 {
		t.Errorf("CombinedAuthVector length = %d, want 28", got)
	}
}

func TestByNameCoversAllCandidates(t *testing.T) {
	f := SensorFeatures{Mean: 1, Var: 2, Max: 3, Min: 4, Ran: 5, Peak: 6, PeakF: 7, Peak2: 8, Peak2F: 9}
	want := map[string]float64{
		"Mean": 1, "Var": 2, "Max": 3, "Min": 4, "Ran": 5,
		"Peak": 6, "Peak f": 7, "Peak2": 8, "Peak2 f": 9,
	}
	for name := range want {
		got, err := f.ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if got != want[name] {
			t.Errorf("ByName(%q) = %v, want %v", name, got, want[name])
		}
	}
	if _, err := f.ByName("Kurtosis"); err == nil {
		t.Errorf("unknown feature should error")
	}
	if got := f.Pruned(); len(got) != 7 || got[1] != 2 || got[6] != 8 {
		t.Errorf("Pruned order wrong: %v", got)
	}
	if got := f.All(); len(got) != 9 || got[8] != 9 {
		t.Errorf("All order wrong: %v", got)
	}
}

func newTestUser(seed int64) *sensing.User {
	rng := rand.New(rand.NewSource(seed))
	return sensing.NewRandomUser("u", rng)
}

func TestExtractWindowsCount(t *testing.T) {
	u := newTestUser(1)
	stream, err := sensing.Session{User: u, Context: sensing.ContextMovingUse, Seconds: 62, Seed: 5}.Generate(sensing.DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	wins, err := ExtractWindows(stream, 6)
	if err != nil {
		t.Fatalf("ExtractWindows: %v", err)
	}
	if len(wins) != 10 { // 62 s / 6 s = 10 full windows
		t.Errorf("got %d windows, want 10", len(wins))
	}
}

func TestExtractWindowsErrors(t *testing.T) {
	if _, err := ExtractWindows(nil, 6); err == nil {
		t.Errorf("nil stream should error")
	}
	u := newTestUser(2)
	stream, _ := sensing.Session{User: u, Context: sensing.ContextMovingUse, Seconds: 10, Seed: 5}.Generate(sensing.DevicePhone)
	if _, err := ExtractWindows(stream, 0); err == nil {
		t.Errorf("zero window should error")
	}
	if _, err := ExtractWindows(&sensing.Stream{Rate: 50}, 6); err == nil {
		t.Errorf("empty stream should error")
	}
}

// Property: extracted features satisfy Min <= Mean <= Max, Var >= 0,
// non-negative spectral amplitudes and frequencies below Nyquist.
func TestExtractInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		u := newTestUser(seed)
		ctxs := sensing.AllContexts()
		ctx := ctxs[int(uint64(seed)%uint64(len(ctxs)))]
		stream, err := sensing.Session{User: u, Context: ctx, Seconds: 12, Seed: seed}.Generate(sensing.DeviceWatch)
		if err != nil {
			return false
		}
		wins, err := ExtractWindows(stream, 6)
		if err != nil {
			return false
		}
		for _, w := range wins {
			for _, s := range []SensorFeatures{w.Acc, w.Gyr} {
				if !(s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9) {
					return false
				}
				if s.Var < 0 || s.Peak < 0 || s.Peak2 < 0 {
					return false
				}
				if s.PeakF < 0 || s.PeakF > sensing.SampleRate/2 ||
					s.Peak2F < 0 || s.Peak2F > sensing.SampleRate/2 {
					return false
				}
				if s.Peak2 > s.Peak+1e-12 {
					return false // secondary peak cannot exceed primary
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCollect(t *testing.T) {
	u := newTestUser(3)
	samples, err := Collect(u, CollectOptions{
		WindowSeconds:  6,
		SessionSeconds: 30,
		Sessions:       2,
		Days:           10,
		Seed:           9,
	})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	// 2 contexts x 2 sessions x 5 windows.
	if len(samples) != 20 {
		t.Fatalf("got %d samples, want 20", len(samples))
	}
	days := map[float64]bool{}
	ctxs := map[sensing.Context]bool{}
	for _, s := range samples {
		if s.UserID != "u" {
			t.Errorf("sample user = %q", s.UserID)
		}
		days[s.Day] = true
		ctxs[s.Context] = true
		if got := len(s.Vector(true)); got != 28 {
			t.Errorf("combined vector length = %d", got)
		}
		if got := len(s.Vector(false)); got != 14 {
			t.Errorf("phone vector length = %d", got)
		}
		if got := len(s.WatchVector()); got != 14 {
			t.Errorf("watch vector length = %d", got)
		}
	}
	if len(days) != 2 {
		t.Errorf("sessions should span 2 distinct days, got %v", days)
	}
	if len(ctxs) != 2 {
		t.Errorf("default contexts should be 2, got %v", ctxs)
	}
}

func TestCollectNilUser(t *testing.T) {
	if _, err := Collect(nil, CollectOptions{}); err == nil {
		t.Errorf("nil user should error")
	}
}

func TestCollectDeterministic(t *testing.T) {
	u := newTestUser(4)
	opt := CollectOptions{WindowSeconds: 6, SessionSeconds: 18, Sessions: 1, Seed: 13}
	a, err := Collect(u, opt)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	b, err := Collect(u, opt)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		va, vb := a[i].Vector(true), b[i].Vector(true)
		for j := range va {
			if va[j] != vb[j] {
				t.Fatalf("sample %d dim %d differs", i, j)
			}
		}
	}
}

// TestPairKeepsWindowsBothDevicesHave: when one device's stream is shorter
// (a lower rate, a lossy link), Pair keeps only the windows both devices
// have, each labelled with the session it came from.
func TestPairKeepsWindowsBothDevicesHave(t *testing.T) {
	sess := sensing.Session{User: newTestUser(5), Context: sensing.ContextMovingUse, Day: 3, Seconds: 30, Seed: 21}
	phone, err := sess.Generate(sensing.DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	short := sess
	short.Seconds = 18
	watch, err := short.Generate(sensing.DeviceWatch)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	samples, err := Pair(sess, phone, watch, 6)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want the watch's 3", len(samples))
	}
	for _, s := range samples {
		if s.UserID != "u" || s.Context != sess.Context || s.Day != sess.Day {
			t.Errorf("sample labelled %q/%v/day %v, want the session's", s.UserID, s.Context, s.Day)
		}
	}
	if _, err := Record(sensing.Session{Context: sensing.ContextMovingUse, Seconds: 6}, 6); err == nil {
		t.Errorf("a session without a user should not record")
	}
}

func TestSplitByCoarseContext(t *testing.T) {
	samples := []WindowSample{
		{Context: sensing.ContextStationaryUse},
		{Context: sensing.ContextMovingUse},
		{Context: sensing.ContextPhoneOnTable},
		{Context: sensing.ContextOnVehicle},
	}
	split := SplitByCoarseContext(samples)
	if len(split[sensing.CoarseStationary]) != 3 {
		t.Errorf("stationary count = %d, want 3", len(split[sensing.CoarseStationary]))
	}
	if len(split[sensing.CoarseMoving]) != 1 {
		t.Errorf("moving count = %d, want 1", len(split[sensing.CoarseMoving]))
	}
}

func TestUsersAreDistinguishableInFeatureSpace(t *testing.T) {
	// Two different users' moving-context feature clouds must differ more
	// across users than within a user — the premise of the whole system.
	pop, err := sensing.NewPopulation(2, 55)
	if err != nil {
		t.Fatalf("NewPopulation: %v", err)
	}
	opt := CollectOptions{WindowSeconds: 6, SessionSeconds: 60, Sessions: 2,
		Contexts: []sensing.Context{sensing.ContextMovingUse}}
	opt.Seed = 100
	a, err := Collect(pop.Users[0], opt)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	opt.Seed = 200
	b, err := Collect(pop.Users[1], opt)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	centroid := func(samples []WindowSample) []float64 {
		c := make([]float64, 28)
		for _, s := range samples {
			for j, v := range s.Vector(true) {
				c[j] += v
			}
		}
		for j := range c {
			c[j] /= float64(len(samples))
		}
		return c
	}
	ca, cb := centroid(a), centroid(b)
	dist := 0.0
	for j := range ca {
		d := ca[j] - cb[j]
		dist += d * d
	}
	if math.Sqrt(dist) < 0.5 {
		t.Errorf("user centroids only %v apart; generator may have lost user separability", math.Sqrt(dist))
	}
}
