package experiments

import (
	"strings"
	"testing"

	"smarteryou/internal/sensing"
)

func TestFigure4WindowSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("window sweep is expensive")
	}
	d := quickData(t)
	// Shrink the sweep for the test via the parameterized runner.
	r, err := RunFigure4Sweep(d, []float64{2, 6})
	if err != nil {
		t.Fatalf("RunFigure4Sweep: %v", err)
	}
	// 2 windows x 3 device sets x 2 contexts.
	if len(r.Points) != 12 {
		t.Fatalf("got %d points, want 12", len(r.Points))
	}
	for _, ctx := range []sensing.CoarseContext{sensing.CoarseStationary, sensing.CoarseMoving} {
		for _, devices := range []DeviceSet{DeviceCombination, DevicePhoneOnly, DeviceWatchOnly} {
			frr := r.Series(ctx, devices, "FRR")
			far := r.Series(ctx, devices, "FAR")
			if len(frr) != 2 || len(far) != 2 {
				t.Fatalf("series lengths = %d/%d, want 2/2", len(frr), len(far))
			}
			for _, v := range append(frr, far...) {
				if v < 0 || v > 1 {
					t.Errorf("rate %v outside [0,1]", v)
				}
			}
		}
	}
	// The paper's core claim, with quick-scale slack: at 6 s the
	// combination's total error should not materially exceed the
	// watch-only configuration's.
	comboErr := r.Series(sensing.CoarseMoving, DeviceCombination, "FRR")[1] +
		r.Series(sensing.CoarseMoving, DeviceCombination, "FAR")[1]
	watchErr := r.Series(sensing.CoarseMoving, DeviceWatchOnly, "FRR")[1] +
		r.Series(sensing.CoarseMoving, DeviceWatchOnly, "FAR")[1]
	if comboErr > watchErr+0.08 {
		t.Errorf("combination error at 6 s (%v) should not materially exceed watch-only (%v)", comboErr, watchErr)
	}
	if !strings.Contains(r.Render(), "FIGURE 4") {
		t.Errorf("render missing header")
	}
}

func TestFigure5DataSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("data-size sweep is expensive")
	}
	d := quickData(t)
	r, err := RunFigure5Sweep(d, []float64{100, 600})
	if err != nil {
		t.Fatalf("RunFigure5Sweep: %v", err)
	}
	for _, ctx := range []sensing.CoarseContext{sensing.CoarseStationary, sensing.CoarseMoving} {
		series := r.Series(ctx, DeviceCombination)
		if len(series) != 2 {
			t.Fatalf("series length = %d, want 2", len(series))
		}
		// Accuracies must be sane; the rising-then-saturating shape is
		// asserted on the paper-scale run in EXPERIMENTS.md (quick scale
		// is too noisy for a strict monotonicity check).
		for _, v := range series {
			if v < 0.5 || v > 1 {
				t.Errorf("%v: accuracy %v outside [0.5, 1]", ctx, v)
			}
		}
	}
	if !strings.Contains(r.Render(), "FIGURE 5") {
		t.Errorf("render missing header")
	}
}

func TestFigure7DriftAndRetraining(t *testing.T) {
	if testing.Short() {
		t.Skip("drift simulation is expensive")
	}
	d := quickData(t)
	r, err := RunFigure7(d)
	if err != nil {
		t.Fatalf("RunFigure7: %v", err)
	}
	if len(r.Points) == 0 {
		t.Fatalf("no trajectory points")
	}
	if r.Points[0].Day != 0 {
		t.Errorf("trajectory should start at day 0")
	}
	// The attacker's confidence score must be negative: he is rejected
	// and can never drive the retraining loop.
	if r.AttackerMeanCS >= 0 {
		t.Errorf("attacker mean CS = %v, want negative", r.AttackerMeanCS)
	}
	if !strings.Contains(r.Render(), "FIGURE 7") {
		t.Errorf("render missing header")
	}
}

// TestFigure7PaperScaleRetrains pins what Fig. 7 is about, at the scale
// and seed of results_paper_scale.txt: the owner drifts until the served
// drift monitor retrains her model late in the horizon, the confidence
// score ends back above epsilon_CS, and the attacker's stays negative.
// (Quick scale cannot show it: the owner's day-0 mean CS is negative
// there.)
func TestFigure7PaperScaleRetrains(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale drift simulation is expensive")
	}
	d, err := NewData(Config{})
	if err != nil {
		t.Fatalf("NewData: %v", err)
	}
	r, err := RunFigure7(d)
	if err != nil {
		t.Fatalf("RunFigure7: %v", err)
	}
	if r.RetrainDay <= 2 || r.RetrainDay > 12 {
		t.Errorf("first retrain at day %v, want later than day 2 and within the 12-day horizon", r.RetrainDay)
	}
	if last := r.Points[len(r.Points)-1]; last.MeanCS < r.Threshold {
		t.Errorf("mean CS %.3f at day %.1f, want recovered to at least %.1f", last.MeanCS, last.Day, r.Threshold)
	}
	if r.AttackerMeanCS >= 0 {
		t.Errorf("attacker mean CS = %v, want negative", r.AttackerMeanCS)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are expensive")
	}
	d := quickData(t)
	r, err := RunAblations(d)
	if err != nil {
		t.Fatalf("RunAblations: %v", err)
	}
	if len(r.Sensors) != 2 || len(r.Features) != 2 || len(r.KNN) != 2 || len(r.Sampling) != 3 {
		t.Fatalf("unexpected ablation shape: %d/%d/%d/%d",
			len(r.Sensors), len(r.Features), len(r.KNN), len(r.Sampling))
	}
	for _, row := range r.Sampling {
		if row.Metrics.Accuracy() < 0.6 {
			t.Errorf("sampling ablation %s accuracy = %v, implausibly low", row.Label, row.Metrics.Accuracy())
		}
	}
	// Adding the gyroscope must help over accelerometer alone.
	if r.Sensors[1].Metrics.Accuracy() < r.Sensors[0].Metrics.Accuracy()-0.02 {
		t.Errorf("acc+gyr (%v) should not lose to acc-only (%v)",
			r.Sensors[1].Metrics.Accuracy(), r.Sensors[0].Metrics.Accuracy())
	}
	if !strings.Contains(r.Render(), "ABLATIONS") {
		t.Errorf("render missing header")
	}
}

func TestROCExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("ROC sweep is expensive")
	}
	d := quickData(t)
	r, err := RunROC(d)
	if err != nil {
		t.Fatalf("RunROC: %v", err)
	}
	if len(r.Points) == 0 {
		t.Fatalf("no ROC points")
	}
	if r.EER < 0 || r.EER > 0.2 {
		t.Errorf("EER = %v, want a small rate for the headline configuration", r.EER)
	}
	if r.AUC < 0.9 {
		t.Errorf("AUC = %v, want >= 0.9", r.AUC)
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].FRR < r.Points[i-1].FRR-1e-12 {
			t.Fatalf("FRR not monotone at %d", i)
		}
		if r.Points[i].FAR > r.Points[i-1].FAR+1e-12 {
			t.Fatalf("FAR not monotone at %d", i)
		}
	}
	if !strings.Contains(r.Render(), "ROC") {
		t.Errorf("render missing header")
	}
}

func TestUnlearningExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("unlearning simulation is expensive")
	}
	d := quickData(t)
	r, err := RunUnlearning(d)
	if err != nil {
		t.Fatalf("RunUnlearning: %v", err)
	}
	// The adaptive model must recover most of the drift loss: strictly
	// better than frozen, and its update must be far cheaper than a full
	// retrain: at most two rank-one updates against every row refitted.
	if r.AdaptiveCS <= r.FrozenCS {
		t.Errorf("adaptive CS (%v) should beat frozen (%v)", r.AdaptiveCS, r.FrozenCS)
	}
	if r.AdaptiveFRR > r.FrozenFRR+0.02 {
		t.Errorf("adaptive FRR (%v) should not exceed frozen (%v)", r.AdaptiveFRR, r.FrozenFRR)
	}
	if r.RetrainRows <= 2 {
		t.Errorf("a full retrain fits %d rows, want more than an adapt's 2 rank-one updates", r.RetrainRows)
	}
	if !strings.Contains(r.Render(), "unlearning") {
		t.Errorf("render missing header")
	}
}

func TestAsciiPlot(t *testing.T) {
	out := asciiPlot(
		[]float64{1, 2, 3, 4},
		[]plotSeries{
			{Name: "up", Marker: 'U', Y: []float64{1, 2, 3, 4}},
			{Name: "down", Marker: 'D', Y: []float64{4, 3, 2, 1}},
		}, 40, 8, "%5.1f")
	if !strings.Contains(out, "U=up") || !strings.Contains(out, "D=down") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "U") || !strings.Contains(out, "D") {
		t.Errorf("markers missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 { // 8 grid rows + axis + legend
		t.Errorf("got %d lines, want 10:\n%s", len(lines), out)
	}
	// Degenerate inputs must not panic.
	if out := asciiPlot(nil, nil, 40, 8, "%5.1f"); !strings.Contains(out, "no data") {
		t.Errorf("empty plot = %q", out)
	}
	if out := asciiPlot([]float64{1}, []plotSeries{{Name: "p", Marker: 'p', Y: []float64{5}}}, 2, 2, "%3.0f"); out == "" {
		t.Errorf("single-point plot empty")
	}
	// Constant series must render (flat line).
	flat := asciiPlot([]float64{1, 2}, []plotSeries{{Name: "f", Marker: 'f', Y: []float64{2, 2}}}, 30, 5, "%4.1f")
	if !strings.Contains(flat, "f=f") {
		t.Errorf("flat plot missing legend:\n%s", flat)
	}
}
