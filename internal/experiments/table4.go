package experiments

import (
	"fmt"
	"math"
	"strings"

	"smarteryou/internal/sensing"
)

// table4Features are the 7 pruned features per sensor (Ran also dropped),
// the axes of Table IV.
func table4Features() []string {
	return []string{"Mean", "Var", "Max", "Min", "Peak", "Peak f", "Peak2"}
}

// Table4Result reproduces Table IV: correlations between smartwatch
// features (rows) and smartphone features (columns), averaged over users.
// Weak correlations justify keeping both devices' features (Section V-D).
type Table4Result struct {
	Labels []string // 14 labels, acc then gyr
	// Corr[i][j] = mean corr(watch feature i, phone feature j).
	Corr [][]float64
}

// RunTable4 computes the cross-device feature correlation matrix.
func RunTable4(d *Data) (*Table4Result, error) {
	var labels []string
	for _, sensor := range []string{"acc", "gyr"} {
		for _, f := range table4Features() {
			labels = append(labels, sensor+" "+f)
		}
	}
	corr, err := d.meanCorrelation(labels, sensing.DeviceWatch, sensing.DevicePhone)
	if err != nil {
		return nil, fmt.Errorf("table4: %w", err)
	}
	return &Table4Result{Labels: labels, Corr: corr}, nil
}

// MaxAbsCorrelation returns the largest absolute cross-device correlation
// — the paper's conclusion requires no strong correlations, so this should
// stay well below 1.
func (r *Table4Result) MaxAbsCorrelation() float64 {
	max := 0.0
	for i := range r.Corr {
		for j := range r.Corr[i] {
			if a := math.Abs(r.Corr[i][j]); a > max {
				max = a
			}
		}
	}
	return max
}

// Render formats the matrix in the paper's Table IV layout (rows:
// smartwatch features, columns: smartphone features).
func (r *Table4Result) Render() string {
	var b strings.Builder
	b.WriteString("TABLE IV: correlations between smartwatch (rows) and smartphone (columns)\n\n")
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
			fmt.Fprintf(&b, "%7.2f", r.Corr[i][j])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nMax |corr| = %.2f (paper: all pairs weak, max ~0.42) — devices carry non-redundant information\n",
		r.MaxAbsCorrelation())
	return b.String()
}
