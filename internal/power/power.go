// Package power models smartphone battery consumption for the four test
// scenarios of Section V-H3 (Table VIII). The paper measured a Nexus 5's
// battery level drop; since this reproduction has no hardware, the battery
// is modelled as an energy budget drained by additive components (idle
// floor, screen, SoC activity, 50 Hz sensor sampling, the Bluetooth link
// to the watch, and the SmarterYou pipeline's compute), calibrated so the
// component sums land near the paper's measurements.
package power

import "fmt"

// Model holds the average power draw of each platform component in
// milliwatts, plus the battery capacity in milliwatt-hours.
type Model struct {
	// BatteryMWH is the battery's energy capacity (Nexus 5: 2300 mAh at
	// 3.8 V nominal = 8740 mWh).
	BatteryMWH float64

	// IdleFloorMW is the locked-phone floor: radios, RAM retention, RTC.
	IdleFloorMW float64
	// ScreenMW is the display panel while on.
	ScreenMW float64
	// SoCActiveMW is the application processor during interactive use.
	SoCActiveMW float64

	// SensorsMW is the accelerometer + gyroscope sampled at 50 Hz.
	SensorsMW float64
	// BluetoothMW is the BLE link streaming watch sensor data.
	BluetoothMW float64
	// PipelineIdleMW is the feature-extraction + classification compute
	// while the phone is locked (the service still monitors).
	PipelineIdleMW float64
	// PipelineActiveMW is the extra draw of continuous sensing during
	// interactive use: sensor batching keeps the SoC out of deep sleep
	// states, which dominates SmarterYou's in-use cost.
	PipelineActiveMW float64
}

// DefaultNexus5 returns the component model calibrated against Table VIII:
// scenario sums come out at ~2.8%, ~4.9% (12 h) and ~5.2%, ~7.6% (1 h at
// 50% usage duty cycle).
func DefaultNexus5() Model {
	return Model{
		BatteryMWH:       8740,
		IdleFloorMW:      20.4,
		ScreenMW:         500,
		SoCActiveMW:      368,
		SensorsMW:        9,
		BluetoothMW:      4,
		PipelineIdleMW:   2.3,
		PipelineActiveMW: 389,
	}
}

// Scenario is one battery test of Table VIII.
type Scenario struct {
	// Name labels the scenario row.
	Name string
	// Hours is the test duration.
	Hours float64
	// UsageDuty is the fraction of time the phone is actively used with
	// the screen on (Table VIII's in-use scenarios alternate five minutes
	// of use and five of rest: duty 0.5).
	UsageDuty float64
	// SmarterYouOn enables the continuous-authentication service.
	SmarterYouOn bool
}

// Table8Scenarios returns the paper's four scenarios.
func Table8Scenarios() []Scenario {
	return []Scenario{
		{Name: "(1) Phone locked, SmarterYou off", Hours: 12, UsageDuty: 0, SmarterYouOn: false},
		{Name: "(2) Phone locked, SmarterYou on", Hours: 12, UsageDuty: 0, SmarterYouOn: true},
		{Name: "(3) Phone unlocked, SmarterYou off", Hours: 1, UsageDuty: 0.5, SmarterYouOn: false},
		{Name: "(4) Phone unlocked, SmarterYou on", Hours: 1, UsageDuty: 0.5, SmarterYouOn: true},
	}
}

// AveragePowerMW returns the scenario's mean power draw.
func (m Model) AveragePowerMW(s Scenario) (float64, error) {
	if s.Hours <= 0 {
		return 0, fmt.Errorf("power: scenario duration must be positive, got %g h", s.Hours)
	}
	if s.UsageDuty < 0 || s.UsageDuty > 1 {
		return 0, fmt.Errorf("power: usage duty %g outside [0,1]", s.UsageDuty)
	}
	p := m.IdleFloorMW + s.UsageDuty*(m.ScreenMW+m.SoCActiveMW)
	if s.SmarterYouOn {
		p += m.SensorsMW + m.BluetoothMW + m.PipelineIdleMW
		p += s.UsageDuty * m.PipelineActiveMW
	}
	return p, nil
}

// Consumption returns the percentage of battery drained by the scenario.
func (m Model) Consumption(s Scenario) (float64, error) {
	p, err := m.AveragePowerMW(s)
	if err != nil {
		return 0, err
	}
	if m.BatteryMWH <= 0 {
		return 0, fmt.Errorf("power: battery capacity must be positive, got %g", m.BatteryMWH)
	}
	return p * s.Hours / m.BatteryMWH * 100, nil
}

// SmarterYouCost returns the extra battery percentage SmarterYou adds to a
// scenario (the "2.1% locked / 2.4% in use" deltas the paper reports).
func (m Model) SmarterYouCost(s Scenario) (float64, error) {
	on := s
	on.SmarterYouOn = true
	off := s
	off.SmarterYouOn = false
	a, err := m.Consumption(on)
	if err != nil {
		return 0, err
	}
	b, err := m.Consumption(off)
	if err != nil {
		return 0, err
	}
	return a - b, nil
}

// ScaleSamplingRate returns a copy of the model with sensor and pipeline
// power scaled for a different sampling rate, following Section V-H2's
// note that CPU utilization (and hence energy) scales with the sampling
// rate. rate is relative to the 50 Hz baseline (e.g. 0.5 for 25 Hz).
func (m Model) ScaleSamplingRate(rate float64) (Model, error) {
	if rate <= 0 {
		return Model{}, fmt.Errorf("power: relative sampling rate must be positive, got %g", rate)
	}
	out := m
	out.SensorsMW *= rate
	out.PipelineIdleMW *= rate
	out.PipelineActiveMW *= rate
	return out, nil
}
