package experiments

import (
	"fmt"
	"strings"

	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
	"smarteryou/internal/stats"
)

// Figure3Feature is the box-plot summary of KS-test p-values for one
// candidate feature on one device.
type Figure3Feature struct {
	Sensor  string // "acc" or "gyr"
	Feature string // candidate feature name
	Box     stats.Quartiles
	// FracBelowAlpha is the fraction of user pairs whose p-value is below
	// alpha = 0.05 — the fraction of pairs the feature can distinguish.
	FracBelowAlpha float64
}

// Figure3Result reproduces Fig. 3: per-feature KS-test p-value box plots
// on the smartphone and smartwatch, the study that drops Peak2_f.
type Figure3Result struct {
	Phone []Figure3Feature
	Watch []Figure3Feature
	Alpha float64
}

// RunFigure3 computes, for every candidate feature, the two-sample KS test
// between every pair of users' feature distributions.
func RunFigure3(d *Data) (*Figure3Result, error) {
	res := &Figure3Result{Alpha: 0.05}
	for _, dev := range []sensing.Device{sensing.DevicePhone, sensing.DeviceWatch} {
		rows, err := d.figure3Device(dev)
		if err != nil {
			return nil, err
		}
		if dev == sensing.DevicePhone {
			res.Phone = rows
		} else {
			res.Watch = rows
		}
	}
	return res, nil
}

func (d *Data) figure3Device(dev sensing.Device) ([]Figure3Feature, error) {
	// feature key -> user -> values.
	type key struct{ sensor, feature string }
	values := make(map[key]map[string][]float64)
	for _, sensor := range []string{"acc", "gyr"} {
		for _, feature := range featureCandidateNames() {
			values[key{sensor, feature}] = make(map[string][]float64)
		}
	}
	for ui, u := range d.Pop.Users {
		samples, err := d.UserWindows(ui, 6)
		if err != nil {
			return nil, fmt.Errorf("figure3: %w", err)
		}
		// Subsample to a paper-scale window count per user: the KS test
		// grows arbitrarily sensitive with sample size, and the paper's
		// box plots (p-values spanning 1e-10..1) correspond to a bounded
		// per-user sample.
		if len(samples) > 40 {
			stride := len(samples) / 40
			var reduced []features.WindowSample
			for i := 0; i < len(samples); i += stride {
				reduced = append(reduced, samples[i])
			}
			samples = reduced
		}
		for _, s := range samples {
			df := s.Phone
			if dev == sensing.DeviceWatch {
				df = s.Watch
			}
			for _, feature := range featureCandidateNames() {
				av, err := df.Acc.ByName(feature)
				if err != nil {
					return nil, err
				}
				gv, err := df.Gyr.ByName(feature)
				if err != nil {
					return nil, err
				}
				values[key{"acc", feature}][u.ID] = append(values[key{"acc", feature}][u.ID], av)
				values[key{"gyr", feature}][u.ID] = append(values[key{"gyr", feature}][u.ID], gv)
			}
		}
	}

	var out []Figure3Feature
	for _, sensor := range []string{"acc", "gyr"} {
		for _, feature := range featureCandidateNames() {
			byUser := values[key{sensor, feature}]
			pvals, err := pairwiseKS(d.Pop, byUser)
			if err != nil {
				return nil, fmt.Errorf("figure3 %s %s: %w", sensor, feature, err)
			}
			box, err := stats.BoxStats(pvals)
			if err != nil {
				return nil, fmt.Errorf("figure3 %s %s: %w", sensor, feature, err)
			}
			below := 0
			for _, p := range pvals {
				if p < 0.05 {
					below++
				}
			}
			out = append(out, Figure3Feature{
				Sensor:         sensor,
				Feature:        feature,
				Box:            box,
				FracBelowAlpha: float64(below) / float64(len(pvals)),
			})
		}
	}
	return out, nil
}

func featureCandidateNames() []string {
	return []string{"Mean", "Var", "Max", "Min", "Ran", "Peak", "Peak f", "Peak2", "Peak2 f"}
}

// pairwiseKS runs the KS test on every user pair's values for one feature.
func pairwiseKS(pop *sensing.Population, byUser map[string][]float64) ([]float64, error) {
	var pvals []float64
	for i := 0; i < len(pop.Users); i++ {
		for j := i + 1; j < len(pop.Users); j++ {
			a := byUser[pop.Users[i].ID]
			b := byUser[pop.Users[j].ID]
			res, err := stats.KSTest(a, b)
			if err != nil {
				return nil, err
			}
			pvals = append(pvals, res.PValue)
		}
	}
	return pvals, nil
}

// BadFeatures lists the features to drop: those that fail to distinguish
// a substantial share of user pairs (the paper's "most of its p-values are
// higher than alpha" criterion, operationalized as more than 30%% of pairs
// indistinguishable or a median p above alpha). The paper drops Peak2_f on
// both sensors and devices.
func (r *Figure3Result) BadFeatures() []string {
	seen := map[string]bool{}
	var out []string
	for _, rows := range [][]Figure3Feature{r.Phone, r.Watch} {
		for _, f := range rows {
			if f.Box.Median > r.Alpha || f.FracBelowAlpha < 0.7 {
				name := f.Sensor + " " + f.Feature
				if !seen[name] {
					seen[name] = true
					out = append(out, name)
				}
			}
		}
	}
	return out
}

// Render formats the box-plot summaries as a table (the textual analogue
// of Fig. 3's log-scale box plots).
func (r *Figure3Result) Render() string {
	var b strings.Builder
	b.WriteString("FIGURE 3: KS test p-values per feature (box-plot five-number summaries)\n")
	b.WriteString("alpha = 0.05; a good feature has most of its p-values below alpha\n")
	for _, dev := range []struct {
		name string
		rows []Figure3Feature
	}{{"Smartphone", r.Phone}, {"Smartwatch", r.Watch}} {
		fmt.Fprintf(&b, "\n[%s]\n", dev.name)
		fmt.Fprintf(&b, "%-14s %10s %10s %10s %10s\n", "feature", "Q1", "median", "Q3", "%<alpha")
		for _, f := range dev.rows {
			fmt.Fprintf(&b, "%-14s %10.2e %10.2e %10.2e %9.0f%%\n",
				f.Sensor+" "+f.Feature, f.Box.Q1, f.Box.Median, f.Box.Q3, f.FracBelowAlpha*100)
		}
	}
	fmt.Fprintf(&b, "\nDropped (>30%% of pairs indistinguishable): %v\n", r.BadFeatures())
	b.WriteString("Paper drops: acc Peak2 f and gyr Peak2 f on both devices\n")
	return b.String()
}
