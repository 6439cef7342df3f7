package stats

import (
	"fmt"
	"sort"
	"strings"
)

// AuthMetrics aggregates binary authentication outcomes into the paper's
// reporting metrics. The positive class is "legitimate user".
//
// FRR (false reject rate) is the fraction of the legitimate user's windows
// misclassified as another user's; FAR (false accept rate) is the fraction
// of other users' windows misclassified as the legitimate user's. For
// security, FAR matters more; for convenience, FRR (Section V-F3).
type AuthMetrics struct {
	TruePositive  int // legitimate accepted
	FalseNegative int // legitimate rejected
	TrueNegative  int // impostor rejected
	FalsePositive int // impostor accepted
}

// Observe records one classification outcome.
func (m *AuthMetrics) Observe(legitimate, accepted bool) {
	switch {
	case legitimate && accepted:
		m.TruePositive++
	case legitimate && !accepted:
		m.FalseNegative++
	case !legitimate && accepted:
		m.FalsePositive++
	default:
		m.TrueNegative++
	}
}

// Merge accumulates another metrics value into m, used to aggregate
// cross-validation folds.
func (m *AuthMetrics) Merge(other AuthMetrics) {
	m.TruePositive += other.TruePositive
	m.FalseNegative += other.FalseNegative
	m.TrueNegative += other.TrueNegative
	m.FalsePositive += other.FalsePositive
}

// FRR returns the false reject rate; 0 when no legitimate samples were
// observed.
func (m AuthMetrics) FRR() float64 {
	total := m.TruePositive + m.FalseNegative
	if total == 0 {
		return 0
	}
	return float64(m.FalseNegative) / float64(total)
}

// FAR returns the false accept rate; 0 when no impostor samples were
// observed.
func (m AuthMetrics) FAR() float64 {
	total := m.TrueNegative + m.FalsePositive
	if total == 0 {
		return 0
	}
	return float64(m.FalsePositive) / float64(total)
}

// Accuracy returns the fraction of all observations classified correctly.
func (m AuthMetrics) Accuracy() float64 {
	total := m.TruePositive + m.FalseNegative + m.TrueNegative + m.FalsePositive
	if total == 0 {
		return 0
	}
	return float64(m.TruePositive+m.TrueNegative) / float64(total)
}

// String renders the metrics in the paper's reporting style.
func (m AuthMetrics) String() string {
	return fmt.Sprintf("FRR %.1f%%  FAR %.1f%%  Accuracy %.1f%%",
		m.FRR()*100, m.FAR()*100, m.Accuracy()*100)
}

// ConfusionMatrix counts multi-class predictions, keyed by string labels,
// as used for the context-detection evaluation (Table V).
type ConfusionMatrix struct {
	counts map[string]map[string]int
	labels map[string]struct{}
}

// NewConfusionMatrix returns an empty confusion matrix.
func NewConfusionMatrix() *ConfusionMatrix {
	return &ConfusionMatrix{
		counts: make(map[string]map[string]int),
		labels: make(map[string]struct{}),
	}
}

// Observe records a single (actual, predicted) pair.
func (c *ConfusionMatrix) Observe(actual, predicted string) {
	row, ok := c.counts[actual]
	if !ok {
		row = make(map[string]int)
		c.counts[actual] = row
	}
	row[predicted]++
	c.labels[actual] = struct{}{}
	c.labels[predicted] = struct{}{}
}

// Labels returns all observed labels in sorted order.
func (c *ConfusionMatrix) Labels() []string {
	out := make([]string, 0, len(c.labels))
	for l := range c.labels {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Count returns the number of observations with the given actual label
// predicted as the given predicted label.
func (c *ConfusionMatrix) Count(actual, predicted string) int {
	return c.counts[actual][predicted]
}

// Rate returns Count(actual, predicted) normalized by the total number of
// observations whose actual label is actual, i.e. the row-normalized
// confusion-matrix entry reported in Table V.
func (c *ConfusionMatrix) Rate(actual, predicted string) float64 {
	total := 0
	for _, n := range c.counts[actual] {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(c.Count(actual, predicted)) / float64(total)
}

// Accuracy returns the fraction of observations on the matrix diagonal.
func (c *ConfusionMatrix) Accuracy() float64 {
	correct, total := 0, 0
	for actual, row := range c.counts {
		for predicted, n := range row {
			total += n
			if actual == predicted {
				correct += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// String renders the row-normalized matrix as a table.
func (c *ConfusionMatrix) String() string {
	labels := c.Labels()
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "actual\\pred")
	for _, l := range labels {
		fmt.Fprintf(&b, "%12s", l)
	}
	b.WriteByte('\n')
	for _, actual := range labels {
		fmt.Fprintf(&b, "%-14s", actual)
		for _, predicted := range labels {
			fmt.Fprintf(&b, "%11.1f%%", c.Rate(actual, predicted)*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
