package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTable8Calibration(t *testing.T) {
	m := DefaultNexus5()
	scenarios := Table8Scenarios()
	if len(scenarios) != 4 {
		t.Fatalf("got %d scenarios, want 4", len(scenarios))
	}
	// Paper's Table VIII values with tolerance: the component model should
	// land close to the measurements.
	want := []float64{2.8, 4.9, 5.2, 7.6}
	tol := []float64{0.2, 0.3, 0.3, 0.4}
	for i, s := range scenarios {
		got, err := m.Consumption(s)
		if err != nil {
			t.Fatalf("Consumption(%q): %v", s.Name, err)
		}
		if math.Abs(got-want[i]) > tol[i] {
			t.Errorf("%s: consumption = %.2f%%, want %.1f%% +/- %.1f", s.Name, got, want[i], tol[i])
		}
	}
}

func TestSmarterYouCostMatchesPaperDeltas(t *testing.T) {
	m := DefaultNexus5()
	locked, err := m.SmarterYouCost(Scenario{Hours: 12, UsageDuty: 0})
	if err != nil {
		t.Fatalf("SmarterYouCost: %v", err)
	}
	if math.Abs(locked-2.1) > 0.3 {
		t.Errorf("locked 12 h cost = %.2f%%, paper reports 2.1%%", locked)
	}
	inUse, err := m.SmarterYouCost(Scenario{Hours: 1, UsageDuty: 0.5})
	if err != nil {
		t.Fatalf("SmarterYouCost: %v", err)
	}
	if math.Abs(inUse-2.4) > 0.4 {
		t.Errorf("in-use 1 h cost = %.2f%%, paper reports 2.4%%", inUse)
	}
}

func TestConsumptionValidation(t *testing.T) {
	m := DefaultNexus5()
	if _, err := m.Consumption(Scenario{Hours: 0}); err == nil {
		t.Errorf("zero duration should error")
	}
	if _, err := m.Consumption(Scenario{Hours: 1, UsageDuty: 1.5}); err == nil {
		t.Errorf("duty > 1 should error")
	}
	bad := m
	bad.BatteryMWH = 0
	if _, err := bad.Consumption(Scenario{Hours: 1}); err == nil {
		t.Errorf("zero battery capacity should error")
	}
}

// Property: SmarterYou on never consumes less than off; more duty never
// consumes less.
func TestConsumptionMonotoneProperty(t *testing.T) {
	m := DefaultNexus5()
	f := func(dutyRaw, hoursRaw float64) bool {
		duty := math.Abs(math.Mod(dutyRaw, 1))
		hours := 0.1 + math.Abs(math.Mod(hoursRaw, 24))
		off, err1 := m.Consumption(Scenario{Hours: hours, UsageDuty: duty, SmarterYouOn: false})
		on, err2 := m.Consumption(Scenario{Hours: hours, UsageDuty: duty, SmarterYouOn: true})
		if err1 != nil || err2 != nil {
			return false
		}
		if on < off {
			return false
		}
		lessDuty, err := m.Consumption(Scenario{Hours: hours, UsageDuty: duty * 0.5, SmarterYouOn: true})
		if err != nil {
			return false
		}
		return lessDuty <= on+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
