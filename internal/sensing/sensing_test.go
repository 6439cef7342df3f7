package sensing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"smarteryou/internal/dsp"
	"smarteryou/internal/stats"
)

func testUser(t *testing.T, seed int64) *User {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return NewRandomUser("test-user", rng)
}

func TestGenerateBasicShape(t *testing.T) {
	u := testUser(t, 1)
	s := Session{User: u, Context: ContextStationaryUse, Seconds: 10, Seed: 42}
	stream, err := s.Generate(DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if got := len(stream.Samples); got != 500 {
		t.Fatalf("10 s at 50 Hz should be 500 samples, got %d", got)
	}
	if sec := stream.Seconds(); math.Abs(sec-10) > 1e-9 {
		t.Errorf("Seconds = %v, want 10", sec)
	}
}

func TestGenerateErrors(t *testing.T) {
	u := testUser(t, 2)
	cases := []struct {
		name string
		s    Session
		dev  Device
	}{
		{"no user", Session{Context: ContextMovingUse, Seconds: 1}, DevicePhone},
		{"bad duration", Session{User: u, Context: ContextMovingUse, Seconds: 0}, DevicePhone},
		{"bad context", Session{User: u, Context: Context(99), Seconds: 1}, DevicePhone},
		{"bad device", Session{User: u, Context: ContextMovingUse, Seconds: 1}, Device(99)},
	}
	for _, c := range cases {
		if _, err := c.s.Generate(c.dev); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	u := testUser(t, 3)
	s := Session{User: u, Context: ContextMovingUse, Seconds: 5, Seed: 7, Day: 3}
	a, err := s.Generate(DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := s.Generate(DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs between identical sessions", i)
		}
	}
}

func TestGenerateSessionSeedMatters(t *testing.T) {
	u := testUser(t, 4)
	a, err := Session{User: u, Context: ContextMovingUse, Seconds: 2, Seed: 1}.Generate(DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Session{User: u, Context: ContextMovingUse, Seconds: 2, Seed: 2}.Generate(DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	same := 0
	for i := range a.Samples {
		if a.Samples[i] == b.Samples[i] {
			same++
		}
	}
	if same == len(a.Samples) {
		t.Errorf("different session seeds produced identical streams")
	}
}

func TestMovingHasMoreEnergyThanStationary(t *testing.T) {
	u := testUser(t, 5)
	stationary, err := Session{User: u, Context: ContextStationaryUse, Seconds: 20, Seed: 9}.Generate(DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	moving, err := Session{User: u, Context: ContextMovingUse, Seconds: 20, Seed: 9}.Generate(DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	varOf := func(s *Stream) float64 {
		x, y, z := s.AccSeries()
		mag, err := dsp.MagnitudeSeries(x, y, z)
		if err != nil {
			t.Fatalf("MagnitudeSeries: %v", err)
		}
		return stats.Variance(mag)
	}
	vs, vm := varOf(stationary), varOf(moving)
	if vm < 10*vs {
		t.Errorf("moving variance %v should dwarf stationary %v", vm, vs)
	}
}

func TestGaitFrequencyRecoverable(t *testing.T) {
	// The dominant spectral peak of the walking accelerometer magnitude
	// must sit at (or at a harmonic of) the user's gait frequency.
	u := testUser(t, 6)
	stream, err := Session{User: u, Context: ContextMovingUse, Seconds: 30, Seed: 11}.Generate(DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	x, y, z := stream.AccSeries()
	mag, err := dsp.MagnitudeSeries(x, y, z)
	if err != nil {
		t.Fatalf("MagnitudeSeries: %v", err)
	}
	plan, err := dsp.PlanFor(len(mag))
	if err != nil {
		t.Fatalf("PlanFor: %v", err)
	}
	var peaks [1]dsp.SpectralPeaks
	if err := plan.PeaksInto(peaks[:], dsp.Detrend(mag), SampleRate); err != nil {
		t.Fatalf("PeaksInto: %v", err)
	}
	peak := peaks[0].PeakF
	f := u.Params.GaitFreq
	ok := false
	for _, h := range []float64{1, 2, 3} {
		if math.Abs(peak-h*f) < 0.25 {
			ok = true
		}
	}
	if !ok {
		t.Errorf("spectral peak at %v Hz, want near a harmonic of gait %v Hz", peak, f)
	}
}

func TestGravityMagnitudeStationary(t *testing.T) {
	u := testUser(t, 7)
	stream, err := Session{User: u, Context: ContextStationaryUse, Seconds: 10, Seed: 13}.Generate(DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	x, y, z := stream.AccSeries()
	mag, err := dsp.MagnitudeSeries(x, y, z)
	if err != nil {
		t.Fatalf("MagnitudeSeries: %v", err)
	}
	mean := stats.Mean(mag)
	if math.Abs(mean-Gravity) > 0.5 {
		t.Errorf("stationary acc magnitude mean = %v, want ~%v", mean, Gravity)
	}
}

func TestAxisSeriesChannels(t *testing.T) {
	u := testUser(t, 8)
	stream, err := Session{User: u, Context: ContextStationaryUse, Seconds: 1, Seed: 17}.Generate(DeviceWatch)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, ch := range Channels() {
		series, err := stream.AxisSeries(ch)
		if err != nil {
			t.Fatalf("AxisSeries(%q): %v", ch, err)
		}
		if len(series) != len(stream.Samples) {
			t.Errorf("channel %q has %d values, want %d", ch, len(series), len(stream.Samples))
		}
	}
	if _, err := stream.AxisSeries("bogus"); err == nil {
		t.Errorf("unknown channel should error")
	}
}

func TestPopulationDemographics(t *testing.T) {
	p, err := NewPopulation(35, 1)
	if err != nil {
		t.Fatalf("NewPopulation: %v", err)
	}
	if len(p.Users) != 35 {
		t.Fatalf("got %d users, want 35", len(p.Users))
	}
	d := p.Demographics()
	if d.Female+d.Male != 35 {
		t.Errorf("demographics sum = %d", d.Female+d.Male)
	}
	total := 0
	for _, n := range d.ByAge {
		total += n
	}
	if total != 35 {
		t.Errorf("age totals = %d, want 35", total)
	}
	if _, err := NewPopulation(0, 1); err == nil {
		t.Errorf("zero-size population should error")
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a, _ := NewPopulation(10, 77)
	b, _ := NewPopulation(10, 77)
	for i := range a.Users {
		if a.Users[i].Params != b.Users[i].Params {
			t.Fatalf("user %d params differ across identical seeds", i)
		}
	}
}

func TestUsersDiffer(t *testing.T) {
	p, _ := NewPopulation(5, 9)
	if p.Users[0].Params.GaitFreq == p.Users[1].Params.GaitFreq {
		t.Errorf("two users drew identical gait frequency")
	}
}

func TestDriftIsDeterministicAndProgressive(t *testing.T) {
	u := testUser(t, 10)
	d3a := u.ParamsAt(3)
	d3b := u.ParamsAt(3)
	if d3a != d3b {
		t.Fatalf("drift at the same day is not deterministic")
	}
	if u.ParamsAt(0) != u.Params {
		t.Errorf("day 0 should be the enrollment parameters")
	}
	// Drift magnitude should grow with elapsed time on average.
	gap := func(day float64) float64 {
		p := u.ParamsAt(day)
		return math.Abs(p.GaitFreq-u.Params.GaitFreq) +
			math.Abs(p.Phone.GaitAmp.X-u.Params.Phone.GaitAmp.X) +
			math.Abs(p.Phone.HoldPitch-u.Params.Phone.HoldPitch)
	}
	small, large := gap(1), gap(30)
	if large <= small {
		t.Logf("drift at day 30 (%v) not larger than day 1 (%v) for this seed; checking population", large, small)
		// A single random walk can wander back; check it holds on average.
		p, _ := NewPopulation(20, 123)
		var s1, s30 float64
		for _, u := range p.Users {
			p1, p30 := u.ParamsAt(1), u.ParamsAt(30)
			s1 += math.Abs(p1.GaitFreq - u.Params.GaitFreq)
			s30 += math.Abs(p30.GaitFreq - u.Params.GaitFreq)
		}
		if s30 <= s1 {
			t.Errorf("population drift at day 30 (%v) should exceed day 1 (%v)", s30, s1)
		}
	}
}

func TestDriftFractionalDayInterpolates(t *testing.T) {
	u := testUser(t, 11)
	g0 := u.ParamsAt(2).GaitFreq
	g1 := u.ParamsAt(3).GaitFreq
	gHalf := u.ParamsAt(2.5).GaitFreq
	lo, hi := math.Min(g0, g1)-0.05, math.Max(g0, g1)+0.05
	if gHalf < lo-0.1 || gHalf > hi+0.1 {
		t.Errorf("fractional drift %v far outside neighbours [%v, %v]", gHalf, g0, g1)
	}
}

func TestMimicMovesTowardVictim(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	attacker := randUserParams(rng)
	victim := randUserParams(rng)
	blended := Mimic(attacker, victim, 1)
	gapBefore := math.Abs(attacker.GaitFreq - victim.GaitFreq)
	gapAfter := math.Abs(blended.GaitFreq - victim.GaitFreq)
	if gapAfter >= gapBefore {
		t.Errorf("full-fidelity mimic should shrink the gait-frequency gap (%v -> %v)", gapBefore, gapAfter)
	}
	if gapAfter < 0.3*gapBefore {
		t.Errorf("mimicry closed %v of the gait gap; execution limits should cap it near 55%%",
			1-gapAfter/gapBefore)
	}
	// Physiological parameters must retain a residual gap at any fidelity.
	if blended.Phone.TremorAmp == victim.Phone.TremorAmp &&
		attacker.Phone.TremorAmp != victim.Phone.TremorAmp {
		t.Errorf("tremor should not be perfectly imitable")
	}
	// Zero fidelity: pure own behaviour — except the sensor calibration
	// biases, which belong to the victim's stolen hardware.
	zero := Mimic(attacker, victim, 0)
	expected := attacker
	expected.Phone.AccBias = victim.Phone.AccBias
	expected.Phone.GyrBias = victim.Phone.GyrBias
	expected.Watch.AccBias = victim.Watch.AccBias
	expected.Watch.GyrBias = victim.Watch.GyrBias
	if zero != expected {
		t.Errorf("zero-fidelity mimic should equal the attacker's own behaviour on the victim's hardware")
	}
}

// Property: mimicking at fidelity f in [0,1] lands consciously
// controllable params between attacker and victim values.
func TestMimicBlendBoundsProperty(t *testing.T) {
	f := func(seed int64, fid float64) bool {
		fid = math.Abs(math.Mod(fid, 1))
		rng := rand.New(rand.NewSource(seed))
		a := randUserParams(rng)
		v := randUserParams(rng)
		m := Mimic(a, v, fid)
		between := func(x, lo, hi float64) bool {
			if lo > hi {
				lo, hi = hi, lo
			}
			return x >= lo-1e-9 && x <= hi+1e-9
		}
		return between(m.GaitFreq, a.GaitFreq, v.GaitFreq) &&
			between(m.Phone.HoldPitch, a.Phone.HoldPitch, v.Phone.HoldPitch) &&
			between(m.Phone.GaitAmp.X, a.Phone.GaitAmp.X, v.Phone.GaitAmp.X)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMimicSessionGeneration(t *testing.T) {
	p, _ := NewPopulation(2, 21)
	victim, attacker := p.Users[0], p.Users[1]
	s := Session{
		User:          attacker,
		Context:       ContextMovingUse,
		Seconds:       5,
		Seed:          31,
		MimicOf:       &victim.Params,
		MimicFidelity: 0.9,
	}
	stream, err := s.Generate(DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(stream.Samples) != 250 {
		t.Errorf("mimic stream has %d samples, want 250", len(stream.Samples))
	}
}

func TestContextStringers(t *testing.T) {
	if ContextMovingUse.String() != "moving-use" || ContextMovingUse.Coarse() != CoarseMoving {
		t.Errorf("moving-use context misbehaves")
	}
	for _, c := range []Context{ContextStationaryUse, ContextPhoneOnTable, ContextOnVehicle} {
		if c.Coarse() != CoarseStationary {
			t.Errorf("%v should coarsen to stationary", c)
		}
	}
	if CoarseStationary.String() != "stationary" || CoarseMoving.String() != "moving" {
		t.Errorf("coarse context strings wrong")
	}
	if DevicePhone.String() != "smartphone" || DeviceWatch.String() != "smartwatch" {
		t.Errorf("device strings wrong")
	}
	if GenderFemale.String() != "female" || Age40plus.String() != "40+" {
		t.Errorf("demographic strings wrong")
	}
	if len(AllContexts()) != 4 {
		t.Errorf("AllContexts should list 4 contexts")
	}
}

func TestDownsample(t *testing.T) {
	u := testUser(t, 14)
	stream, err := Session{User: u, Context: ContextMovingUse, Seconds: 4, Seed: 8}.Generate(DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	half, err := stream.Downsample(2)
	if err != nil {
		t.Fatalf("Downsample: %v", err)
	}
	if half.Rate != 25 {
		t.Errorf("downsampled rate = %v, want 25", half.Rate)
	}
	if len(half.Samples) != len(stream.Samples)/2 {
		t.Errorf("downsampled length = %d, want %d", len(half.Samples), len(stream.Samples)/2)
	}
	for i := range half.Samples {
		if half.Samples[i] != stream.Samples[2*i] {
			t.Fatalf("sample %d is not the decimated original", i)
		}
	}
	same, err := stream.Downsample(1)
	if err != nil {
		t.Fatalf("Downsample(1): %v", err)
	}
	if len(same.Samples) != len(stream.Samples) {
		t.Errorf("factor 1 changed the length")
	}
	same.Samples[0].Light = -1 // must be a copy
	if stream.Samples[0].Light == -1 {
		t.Errorf("Downsample(1) aliases the original")
	}
	if _, err := stream.Downsample(0); err == nil {
		t.Errorf("factor 0 should error")
	}
}

func TestPhoneOnTableIsQuiet(t *testing.T) {
	u := testUser(t, 13)
	table, err := Session{User: u, Context: ContextPhoneOnTable, Seconds: 10, Seed: 15}.Generate(DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	handheld, err := Session{User: u, Context: ContextStationaryUse, Seconds: 10, Seed: 15}.Generate(DevicePhone)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	varOf := func(s *Stream) float64 {
		_, _, z := s.AccSeries()
		return stats.Variance(z)
	}
	if varOf(table) >= varOf(handheld) {
		t.Errorf("phone on table should be quieter than hand-held")
	}
}
