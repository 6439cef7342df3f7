package experiments

import (
	"fmt"
	"strings"

	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
	"smarteryou/internal/stats"
)

// table3Features are the 8 features per sensor that survive the KS test
// (Peak2_f dropped), the axes of Table III.
func table3Features() []string {
	return []string{"Mean", "Var", "Max", "Min", "Ran", "Peak", "Peak f", "Peak2"}
}

// Table3Result reproduces Table III: correlations between every pair of
// features, phone in the upper triangle and watch in the lower triangle,
// averaged over users. The analysis drops Ran for redundancy with Var.
type Table3Result struct {
	// Labels are the 16 row/column labels: acc features then gyr features.
	Labels []string
	// Phone[i][j] and Watch[i][j] are average correlation coefficients.
	Phone [][]float64
	Watch [][]float64
}

// featureOf pulls a labelled feature ("acc Var", "gyr Peak f") from a
// device summary.
func featureOf(df features.DeviceFeatures, label string) (float64, error) {
	var sensor features.SensorFeatures
	var name string
	switch {
	case strings.HasPrefix(label, "acc "):
		sensor, name = df.Acc, strings.TrimPrefix(label, "acc ")
	case strings.HasPrefix(label, "gyr "):
		sensor, name = df.Gyr, strings.TrimPrefix(label, "gyr ")
	default:
		return 0, fmt.Errorf("experiments: bad feature label %q", label)
	}
	return sensor.ByName(name)
}

// RunTable3 computes the per-user Pearson correlation between every pair
// of features over that user's windows, then averages across users.
func RunTable3(d *Data) (*Table3Result, error) {
	var labels []string
	for _, sensor := range []string{"acc", "gyr"} {
		for _, f := range table3Features() {
			labels = append(labels, sensor+" "+f)
		}
	}
	res := &Table3Result{Labels: labels}
	var err error
	if res.Phone, err = d.meanCorrelation(labels, sensing.DevicePhone, sensing.DevicePhone); err != nil {
		return nil, fmt.Errorf("table3: %w", err)
	}
	if res.Watch, err = d.meanCorrelation(labels, sensing.DeviceWatch, sensing.DeviceWatch); err != nil {
		return nil, fmt.Errorf("table3: %w", err)
	}
	return res, nil
}

// meanCorrelation computes the |labels| x |labels| matrix whose (i, j)
// entry is the correlation of feature i on device rows with feature j on
// device cols (Tables III and IV). Correlations are computed within each
// (user, coarse context) group and averaged, so the stationary-versus-
// moving level difference — which would correlate *everything* with
// everything — does not masquerade as feature redundancy. Groups are
// summed in user, then context order.
func (d *Data) meanCorrelation(labels []string, rows, cols sensing.Device) ([][]float64, error) {
	n := len(labels)
	columns := func(samples []features.WindowSample, dev sensing.Device) ([][]float64, error) {
		out := make([][]float64, n)
		for _, s := range samples {
			df := s.Phone
			if dev == sensing.DeviceWatch {
				df = s.Watch
			}
			for i, label := range labels {
				v, err := featureOf(df, label)
				if err != nil {
					return nil, err
				}
				out[i] = append(out[i], v)
			}
		}
		return out, nil
	}
	sum := make([][]float64, n)
	for i := range sum {
		sum[i] = make([]float64, n)
	}
	groups := 0
	for ui := range d.Pop.Users {
		samples, err := d.UserWindows(ui, 6)
		if err != nil {
			return nil, err
		}
		byContext := features.SplitByCoarseContext(samples)
		for _, ctx := range []sensing.CoarseContext{sensing.CoarseStationary, sensing.CoarseMoving} {
			group := byContext[ctx]
			if len(group) < 10 {
				continue
			}
			rowCols, err := columns(group, rows)
			if err != nil {
				return nil, err
			}
			colCols, err := columns(group, cols)
			if err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					sum[i][j] += stats.Pearson(rowCols[i], colCols[j])
				}
			}
			groups++
		}
	}
	if groups == 0 {
		return nil, fmt.Errorf("experiments: no (user, context) group has enough windows")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum[i][j] /= float64(groups)
		}
	}
	return sum, nil
}

// RanVarCorrelation returns the Ran-Var correlations that justify dropping
// Ran (the paper observes "very high correlation ... in each sensor on
// both the smartphone and smartwatch").
func (r *Table3Result) RanVarCorrelation() map[string]float64 {
	idx := map[string]int{}
	for i, l := range r.Labels {
		idx[l] = i
	}
	out := map[string]float64{}
	for _, sensor := range []string{"acc", "gyr"} {
		i, j := idx[sensor+" Ran"], idx[sensor+" Var"]
		out["phone "+sensor] = r.Phone[i][j]
		out["watch "+sensor] = r.Watch[i][j]
	}
	return out
}

// Render formats the combined triangle matrix the way Table III lays it
// out: phone above the diagonal, watch below.
func (r *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("TABLE III: correlations between feature pairs\n")
	b.WriteString("(upper triangle: smartphone; lower triangle: smartwatch)\n\n")
	short := func(l string) string {
		l = strings.ReplaceAll(l, "acc ", "a.")
		l = strings.ReplaceAll(l, "gyr ", "g.")
		return strings.ReplaceAll(l, " ", "")
	}
	fmt.Fprintf(&b, "%-9s", "")
	for _, l := range r.Labels {
		fmt.Fprintf(&b, "%7s", short(l))
	}
	b.WriteByte('\n')
	for i, li := range r.Labels {
		fmt.Fprintf(&b, "%-9s", short(li))
		for j := range r.Labels {
			switch {
			case i < j:
				fmt.Fprintf(&b, "%7.2f", r.Phone[i][j])
			case i > j:
				fmt.Fprintf(&b, "%7.2f", r.Watch[i][j])
			default:
				fmt.Fprintf(&b, "%7s", "-")
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("\nRan-Var correlations (paper: ~0.90-0.95, motivating dropping Ran):\n")
	ranVar := r.RanVarCorrelation()
	for _, k := range []string{"phone acc", "watch acc", "phone gyr", "watch gyr"} {
		fmt.Fprintf(&b, "  %-12s %.2f\n", k, ranVar[k])
	}
	return b.String()
}
