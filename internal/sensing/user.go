package sensing

import (
	"fmt"
	"math/rand"
)

// Gender is a demographic attribute of the study population (Fig. 2).
type Gender int

// Genders recorded in the paper's demographics.
const (
	GenderFemale Gender = iota + 1
	GenderMale
)

// String implements fmt.Stringer.
func (g Gender) String() string {
	switch g {
	case GenderFemale:
		return "female"
	case GenderMale:
		return "male"
	default:
		return fmt.Sprintf("Gender(%d)", int(g))
	}
}

// AgeRange is a demographic age band (Fig. 2).
type AgeRange int

// Age bands used in Fig. 2.
const (
	Age20to25 AgeRange = iota + 1
	Age25to30
	Age30to35
	Age35to40
	Age40plus
)

// String implements fmt.Stringer.
func (a AgeRange) String() string {
	switch a {
	case Age20to25:
		return "20-25"
	case Age25to30:
		return "25-30"
	case Age30to35:
		return "30-35"
	case Age35to40:
		return "35-40"
	case Age40plus:
		return "40+"
	default:
		return fmt.Sprintf("AgeRange(%d)", int(a))
	}
}

// DeviceParams are the per-device components of a user's behavioural
// model. The phone and watch observe the same underlying activity (same
// gait cadence) but through different body attachment points, so most
// amplitudes are drawn independently per device — which is exactly why the
// watch contributes non-redundant features (Table IV).
type DeviceParams struct {
	// Walking (moving-use context).
	GaitAmp    Axis3   // per-axis accelerometer oscillation amplitude, m/s^2
	GaitPhase  Axis3   // per-axis phase offsets, radians
	Harmonic2  float64 // relative amplitude of the second gait harmonic
	StepImpact float64 // heel-strike impulse amplitude, m/s^2
	GyrGaitAmp Axis3   // per-axis gyroscope oscillation amplitude, rad/s

	// Stationary use.
	TremorFreq   float64 // physiological tremor frequency, Hz
	TremorAmp    float64 // tremor acceleration amplitude, m/s^2
	GyrTremorAmp float64 // tremor rotation amplitude, rad/s
	SwayFreq     float64 // postural hand-sway frequency, Hz
	SwayAmp      float64 // sway acceleration amplitude, m/s^2
	GyrSwayAmp   float64 // sway rotation amplitude, rad/s
	TapRate      float64 // touchscreen interaction events per second
	TapStrength  float64 // tap-induced gyro transient amplitude, rad/s
	TapFreq      float64 // resonant frequency of the tap transient, Hz

	// Device attitude while in use.
	HoldPitch float64 // degrees
	HoldRoll  float64 // degrees

	// Per-unit sensor calibration offsets. These are properties of the
	// physical device, not the person — but since each device has exactly
	// one owner (Section III), they contribute to the owner's signature.
	// Mimic copies them to the attacker: a thief holds the victim's
	// physical phone.
	AccBias Axis3 // m/s^2
	GyrBias Axis3 // rad/s
}

// UserParams is the complete generative model of one user's behaviour.
type UserParams struct {
	GaitFreq float64 // walking cadence, Hz (shared by both devices)
	Phone    DeviceParams
	Watch    DeviceParams
}

// User is one member of the study population.
type User struct {
	ID     string
	Gender Gender
	Age    AgeRange
	Params UserParams

	// driftSeed drives the deterministic day-scale behavioural drift path
	// for this user (Section V-I).
	driftSeed int64
}

func uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + rng.Float64()*(hi-lo)
}

// randDeviceParams draws one device's behavioural parameters. Scale
// selects phone-like (1.0) versus watch-like dynamics: the wrist sees
// larger walking oscillation (arm swing) and slightly different tremor.
func randDeviceParams(rng *rand.Rand, watch bool) DeviceParams {
	ampLo, ampHi := 0.8, 3.2
	gyrLo, gyrHi := 0.25, 1.3
	if watch {
		ampLo, ampHi = 1.2, 4.8
		gyrLo, gyrHi = 0.4, 2.0
	}
	return DeviceParams{
		GaitAmp: Axis3{
			X: uniform(rng, ampLo, ampHi),
			Y: uniform(rng, ampLo, ampHi),
			Z: uniform(rng, ampLo, ampHi),
		},
		GaitPhase: Axis3{
			X: uniform(rng, 0, 6.28),
			Y: uniform(rng, 0, 6.28),
			Z: uniform(rng, 0, 6.28),
		},
		Harmonic2:  uniform(rng, 0.15, 0.6),
		StepImpact: uniform(rng, 0.5, 2.5),
		GyrGaitAmp: Axis3{
			X: uniform(rng, gyrLo, gyrHi),
			Y: uniform(rng, gyrLo, gyrHi),
			Z: uniform(rng, gyrLo, gyrHi),
		},
		TremorFreq:   uniform(rng, 8, 12),
		TremorAmp:    uniform(rng, 0.06, 0.30),
		GyrTremorAmp: uniform(rng, 0.03, 0.18),
		SwayFreq:     uniform(rng, 0.3, 1.2),
		SwayAmp:      uniform(rng, 0.10, 0.55),
		GyrSwayAmp:   uniform(rng, 0.05, 0.30),
		TapRate:      uniform(rng, 0.6, 2.8),
		TapStrength:  uniform(rng, 0.15, 0.9),
		TapFreq:      uniform(rng, 4.5, 9),
		HoldPitch:    uniform(rng, 15, 65),
		HoldRoll:     uniform(rng, -25, 25),
		AccBias: Axis3{
			X: rng.NormFloat64() * 0.12,
			Y: rng.NormFloat64() * 0.12,
			Z: rng.NormFloat64() * 0.12,
		},
		// Gyro bias is kept small: magnitude rectification makes larger
		// biases flip the dominant spectral component between f and 2f,
		// which would corrupt the Peak_f feature.
		GyrBias: Axis3{
			X: rng.NormFloat64() * 0.005,
			Y: rng.NormFloat64() * 0.005,
			Z: rng.NormFloat64() * 0.005,
		},
	}
}

// NewRandomUser draws a complete user model from the population prior.
func NewRandomUser(id string, rng *rand.Rand) *User {
	return &User{
		ID:        id,
		Gender:    randGender(rng),
		Age:       randAge(rng),
		Params:    randUserParams(rng),
		driftSeed: rng.Int63(),
	}
}

func randUserParams(rng *rand.Rand) UserParams {
	return UserParams{
		GaitFreq: uniform(rng, 1.5, 2.1),
		Phone:    randDeviceParams(rng, false),
		Watch:    randDeviceParams(rng, true),
	}
}

// Fig. 2 proportions: 16 female / 19 male.
func randGender(rng *rand.Rand) Gender {
	if rng.Float64() < 16.0/35.0 {
		return GenderFemale
	}
	return GenderMale
}

// Fig. 2 proportions: 12 / 9 / 5 / 5 / 4 across the five age bands.
func randAge(rng *rand.Rand) AgeRange {
	r := rng.Float64() * 35
	switch {
	case r < 12:
		return Age20to25
	case r < 21:
		return Age25to30
	case r < 26:
		return Age30to35
	case r < 31:
		return Age35to40
	default:
		return Age40plus
	}
}

// Population is a cohort of synthetic study participants.
type Population struct {
	Users []*User
}

// NewPopulation draws n users deterministically from the given seed. With
// n = 35 this stands in for the paper's participant pool.
func NewPopulation(n int, seed int64) (*Population, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sensing: population size must be positive, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Population{Users: make([]*User, n)}
	for i := range p.Users {
		p.Users[i] = NewRandomUser(fmt.Sprintf("user-%02d", i), rng)
	}
	return p, nil
}

// Demographics tallies the population the way Fig. 2 reports it.
type Demographics struct {
	Female, Male int
	ByAge        map[AgeRange]int
}

// Demographics computes the cohort summary of Fig. 2.
func (p *Population) Demographics() Demographics {
	d := Demographics{ByAge: make(map[AgeRange]int)}
	for _, u := range p.Users {
		if u.Gender == GenderFemale {
			d.Female++
		} else {
			d.Male++
		}
		d.ByAge[u.Age]++
	}
	return d
}
