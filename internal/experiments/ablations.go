package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"smarteryou/internal/features"
	"smarteryou/internal/ml"
	"smarteryou/internal/sensing"
	"smarteryou/internal/stats"
)

// AblationRow is one configuration of a design-choice ablation.
type AblationRow struct {
	Label   string
	Metrics stats.AuthMetrics
}

// AblationResult collects the design-choice ablations DESIGN.md calls out
// beyond the paper's own tables: sensor set, feature pruning, the k-NN
// baseline from the related gait literature, and the sampling-rate
// trade-off of Section V-H2.
type AblationResult struct {
	Sensors  []AblationRow // acc-only vs acc+gyr
	Features []AblationRow // pruned 7 vs unpruned 9 per sensor
	KNN      []AblationRow // related-work baseline classifier
	Sampling []AblationRow // 50 Hz vs downsampled rates
}

// RunAblations evaluates the ablations under the context-aware
// combination configuration wherever applicable.
func RunAblations(d *Data) (*AblationResult, error) {
	res := &AblationResult{}
	// Three rows are Table VII configurations under its seed: acc+gyr and
	// the pruned set are the phone vector with context, and KRR is the
	// headline. They are read from its memo rather than cross-validated
	// again.
	t7, err := RunTable7(d)
	if err != nil {
		return nil, err
	}
	phone := t7.Rows[2].Metrics // w/ context, smartphone

	// Sensor ablation (phone only, so the comparison isolates the sensor
	// set): accelerometer alone, like the gait literature, vs acc+gyr.
	accOnly, err := d.evaluateVectors("acc-only (7 dims)", func(w features.WindowSample) []float64 {
		return w.Phone.AccOnlyVector()
	})
	if err != nil {
		return nil, err
	}
	res.Sensors = []AblationRow{accOnly, {Label: "acc+gyr (14 dims)", Metrics: phone}}

	// Feature-pruning ablation: the pruned 7-feature set of Section V-C vs
	// the full 9-candidate set (phone only).
	full, err := d.evaluateVectors("all 9 features/sensor", func(w features.WindowSample) []float64 {
		return w.Phone.FullVector()
	})
	if err != nil {
		return nil, err
	}
	res.Features = []AblationRow{{Label: "pruned 7 features/sensor", Metrics: phone}, full}

	// k-NN baseline (Nickel et al. use k-NN over accelerometer features).
	knn, err := d.EvaluateAuth(EvalOptions{
		Devices:       DeviceCombination,
		UseContext:    true,
		NewClassifier: func() ml.BinaryClassifier { return ml.NewKNN() },
	})
	if err != nil {
		return nil, fmt.Errorf("ablation knn: %w", err)
	}
	res.KNN = []AblationRow{
		{Label: "k-NN (related work)", Metrics: knn},
		{Label: "KRR (this paper)", Metrics: t7.Headline()},
	}

	// Sampling-rate ablation: the same campaign downsampled. Lower rates
	// save power (Section V-H2: CPU scales with the sampling rate) at the
	// cost of spectral resolution.
	for _, factor := range []int{1, 2, 4} {
		row, err := d.evaluateSamplingRate(factor)
		if err != nil {
			return nil, err
		}
		res.Sampling = append(res.Sampling, row)
	}
	return res, nil
}

// evaluateSamplingRate runs a compact evaluation with streams downsampled
// by the factor before feature extraction.
func (d *Data) evaluateSamplingRate(factor int) (AblationRow, error) {
	rng := rand.New(rand.NewSource(d.Cfg.Seed * int64(7000+factor)))
	det, err := d.Detector(6)
	if err != nil {
		return AblationRow{}, err
	}
	// Every user's downsampled recordings: one session per usage context.
	perUser := make([][]features.WindowSample, d.Cfg.Users)
	for userIdx := range perUser {
		for ci, ctx := range usageContexts {
			sess := sensing.Session{
				User:    d.Pop.Users[userIdx],
				Context: ctx,
				Seconds: d.Cfg.SessionSeconds,
				Seed:    d.Cfg.Seed*8_000_009 + int64(userIdx)*127 + int64(ci),
			}
			phone, err := sess.Generate(sensing.DevicePhone)
			if err != nil {
				return AblationRow{}, err
			}
			watch, err := sess.Generate(sensing.DeviceWatch)
			if err != nil {
				return AblationRow{}, err
			}
			if phone, err = phone.Downsample(factor); err != nil {
				return AblationRow{}, err
			}
			if watch, err = watch.Downsample(factor); err != nil {
				return AblationRow{}, err
			}
			got, err := features.Pair(sess, phone, watch, 6)
			if err != nil {
				return AblationRow{}, err
			}
			perUser[userIdx] = append(perUser[userIdx], got...)
		}
	}

	var agg stats.AuthMetrics
	opt := EvalOptions{Devices: DeviceCombination, UseContext: true}.withDefaults()
	for target := 0; target < min(d.Cfg.Targets, 3); target++ {
		var impostor []features.WindowSample
		for i, got := range perUser {
			if i != target {
				impostor = append(impostor, got...)
			}
		}
		err := crossValidate(det, perUser[target], impostor, 4, opt, rng, func(v verdict) {
			agg.Observe(v.legit, v.accepted)
		})
		if err != nil {
			return AblationRow{}, err
		}
	}
	label := fmt.Sprintf("%.1f Hz", sensing.SampleRate/float64(factor))
	return AblationRow{Label: label, Metrics: agg}, nil
}

// evaluateVectors runs the standard protocol with a custom vector
// extractor (EvalOptions.Extract), under context-aware dispatch.
func (d *Data) evaluateVectors(label string, extract func(features.WindowSample) []float64) (AblationRow, error) {
	m, err := d.EvaluateAuth(EvalOptions{
		Devices:    DevicePhoneOnly,
		UseContext: true,
		Extract:    extract,
	})
	if err != nil {
		return AblationRow{}, fmt.Errorf("ablation %s: %w", label, err)
	}
	return AblationRow{Label: label, Metrics: m}, nil
}

// Render formats all ablations.
func (r *AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("ABLATIONS: design choices called out in DESIGN.md\n")
	section := func(name string, rows []AblationRow) {
		fmt.Fprintf(&b, "\n[%s]\n", name)
		fmt.Fprintf(&b, "%-26s %8s %8s %10s\n", "configuration", "FRR", "FAR", "Accuracy")
		for _, row := range rows {
			fmt.Fprintf(&b, "%-26s %7.1f%% %7.1f%% %9.1f%%\n",
				row.Label, row.Metrics.FRR()*100, row.Metrics.FAR()*100, row.Metrics.Accuracy()*100)
		}
	}
	section("sensor set (phone only, w/ context)", r.Sensors)
	section("feature pruning (phone only, w/ context)", r.Features)
	section("classifier baseline (combination, w/ context)", r.KNN)
	section("sampling rate (combination, w/ context)", r.Sampling)
	return b.String()
}
