// Package sensing is the sensor substrate that replaces the paper's
// proprietary dataset: 35 participants carrying a Nexus 5 smartphone and a
// Moto 360 smartwatch for two weeks, sampled at 50 Hz (Section V-A).
//
// Each synthetic user is a generative model of motion behaviour — gait
// frequency and per-axis amplitudes, micro-tremor, device-holding
// orientation, tap intensity — with separate (weakly correlated) parameter
// draws for the wrist-worn watch. Sessions are synthesized per usage
// context (Section V-E's four contexts), with per-window jitter, slow AR(1)
// modulation within a session, and day-scale behavioural drift, so that
// windows from one user form a cluster that is distinct from other users'
// but far from degenerate.
//
// Environment-driven sensors (magnetometer, orientation, ambient light)
// are synthesized mostly from session-level environmental state rather
// than user parameters, which is what gives them the near-zero Fisher
// scores of Table II and justifies the paper's choice of accelerometer +
// gyroscope.
package sensing

import "fmt"

// SampleRate is the sensor sampling rate in Hz used throughout the paper.
const SampleRate = 50.0

// Gravity is standard gravity in m/s^2.
const Gravity = 9.81

// Axis3 is one tri-axial sensor reading.
type Axis3 struct {
	X, Y, Z float64
}

// Sample is one 20 ms snapshot of every sensor on a device: the hard
// sensors of Table II.
type Sample struct {
	Acc   Axis3   // accelerometer, m/s^2 (includes gravity)
	Gyr   Axis3   // gyroscope, rad/s
	Mag   Axis3   // magnetometer, uT
	Ori   Axis3   // orientation (azimuth, pitch, roll), degrees
	Light float64 // ambient light, lux
}

// Stream is a fixed-rate sequence of samples from one device.
type Stream struct {
	Rate    float64
	Samples []Sample
}

// Seconds returns the stream duration.
func (s *Stream) Seconds() float64 {
	if s.Rate == 0 {
		return 0
	}
	return float64(len(s.Samples)) / s.Rate
}

// AxisSeries extracts a single scalar channel from the stream; channel
// names follow Table II: "acc.x", "gyr.z", "mag.y", "ori.x", "light".
func (s *Stream) AxisSeries(channel string) ([]float64, error) {
	out := make([]float64, len(s.Samples))
	for i, smp := range s.Samples {
		switch channel {
		case "acc.x":
			out[i] = smp.Acc.X
		case "acc.y":
			out[i] = smp.Acc.Y
		case "acc.z":
			out[i] = smp.Acc.Z
		case "gyr.x":
			out[i] = smp.Gyr.X
		case "gyr.y":
			out[i] = smp.Gyr.Y
		case "gyr.z":
			out[i] = smp.Gyr.Z
		case "mag.x":
			out[i] = smp.Mag.X
		case "mag.y":
			out[i] = smp.Mag.Y
		case "mag.z":
			out[i] = smp.Mag.Z
		case "ori.x":
			out[i] = smp.Ori.X
		case "ori.y":
			out[i] = smp.Ori.Y
		case "ori.z":
			out[i] = smp.Ori.Z
		case "light":
			out[i] = smp.Light
		default:
			return nil, fmt.Errorf("sensing: unknown channel %q", channel)
		}
	}
	return out, nil
}

// Channels lists every scalar channel of Table II in presentation order.
func Channels() []string {
	return []string{
		"acc.x", "acc.y", "acc.z",
		"mag.x", "mag.y", "mag.z",
		"gyr.x", "gyr.y", "gyr.z",
		"ori.x", "ori.y", "ori.z",
		"light",
	}
}

// AccSeries returns the three accelerometer axis series.
func (s *Stream) AccSeries() (x, y, z []float64) {
	x = make([]float64, len(s.Samples))
	y = make([]float64, len(s.Samples))
	z = make([]float64, len(s.Samples))
	for i, smp := range s.Samples {
		x[i], y[i], z[i] = smp.Acc.X, smp.Acc.Y, smp.Acc.Z
	}
	return x, y, z
}

// Downsample returns a copy of the stream keeping every factor-th sample,
// with the rate reduced accordingly. It models running the pipeline at a
// lower sensor sampling rate — Section V-H2 notes that CPU (and energy)
// scale with the sampling rate, making this the knob for the
// accuracy-versus-power trade-off.
func (s *Stream) Downsample(factor int) (*Stream, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("sensing: downsample factor must be positive, got %d", factor)
	}
	if factor == 1 {
		out := &Stream{Rate: s.Rate, Samples: make([]Sample, len(s.Samples))}
		copy(out.Samples, s.Samples)
		return out, nil
	}
	out := &Stream{Rate: s.Rate / float64(factor)}
	for i := 0; i < len(s.Samples); i += factor {
		out.Samples = append(out.Samples, s.Samples[i])
	}
	return out, nil
}

// Device identifies which hardware produced a stream.
type Device int

// Devices in the two-device configuration of Section IV-A.
const (
	DevicePhone Device = iota + 1
	DeviceWatch
)

// String implements fmt.Stringer.
func (d Device) String() string {
	switch d {
	case DevicePhone:
		return "smartphone"
	case DeviceWatch:
		return "smartwatch"
	default:
		return fmt.Sprintf("Device(%d)", int(d))
	}
}

// Context is one of the four fine-grained usage contexts of Section V-E.
type Context int

// The four contexts the paper initially distinguishes. Contexts
// StationaryUse, PhoneOnTable and OnVehicle collapse into the coarse
// "stationary" class; MovingUse is "moving".
const (
	ContextStationaryUse Context = iota + 1 // using the phone while sitting or standing
	ContextMovingUse                        // using the phone while walking
	ContextPhoneOnTable                     // phone resting on a surface during use
	ContextOnVehicle                        // using the phone on a moving vehicle
)

// String implements fmt.Stringer.
func (c Context) String() string {
	switch c {
	case ContextStationaryUse:
		return "stationary-use"
	case ContextMovingUse:
		return "moving-use"
	case ContextPhoneOnTable:
		return "phone-on-table"
	case ContextOnVehicle:
		return "on-vehicle"
	default:
		return fmt.Sprintf("Context(%d)", int(c))
	}
}

// CoarseContext is the two-class context the paper settles on (Table V).
type CoarseContext int

// Coarse contexts.
const (
	CoarseStationary CoarseContext = iota + 1
	CoarseMoving
)

// String implements fmt.Stringer.
func (c CoarseContext) String() string {
	switch c {
	case CoarseStationary:
		return "stationary"
	case CoarseMoving:
		return "moving"
	default:
		return fmt.Sprintf("CoarseContext(%d)", int(c))
	}
}

// Coarse maps a fine-grained context to its coarse class: everything that
// is "relatively stationary" (contexts 1, 3, 4) merges, per Section V-E1.
func (c Context) Coarse() CoarseContext {
	if c == ContextMovingUse {
		return CoarseMoving
	}
	return CoarseStationary
}

// AllContexts lists the four fine-grained contexts.
func AllContexts() []Context {
	return []Context{ContextStationaryUse, ContextMovingUse, ContextPhoneOnTable, ContextOnVehicle}
}
