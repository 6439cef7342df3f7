package experiments

import (
	"fmt"
	"sort"
)

// Report is the rendered outcome of one experiment.
type Report struct {
	ID    string
	Title string
	Text  string
}

// runner regenerates one paper artifact.
type runner struct {
	title string
	run   func(*Data) (string, error)
}

// artifact registers a typed Run function: the runner calls it and renders
// its result.
func artifact[R interface{ Render() string }](title string, run func(*Data) (R, error)) runner {
	return runner{title, func(d *Data) (string, error) {
		r, err := run(d)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}}
}

// registry maps artifact ids to their runners.
var registry = map[string]runner{
	"table1":     artifact("Table I — related-work comparison", RunTable1),
	"figure2":    artifact("Fig. 2 — participant demographics", RunFigure2),
	"table2":     artifact("Table II — Fisher scores of sensors", RunTable2),
	"figure3":    artifact("Fig. 3 — KS tests on sensor features", RunFigure3),
	"table3":     artifact("Table III — feature-pair correlations", RunTable3),
	"table4":     artifact("Table IV — phone-watch correlations", RunTable4),
	"table5":     artifact("Table V — context-detection confusion matrix", RunTable5),
	"table6":     artifact("Table VI — ML algorithm comparison", RunTable6),
	"figure4":    artifact("Fig. 4 — FRR/FAR vs window size", RunFigure4),
	"figure5":    artifact("Fig. 5 — accuracy vs data size", RunFigure5),
	"table7":     artifact("Table VII — context/device configurations", RunTable7),
	"figure6":    artifact("Fig. 6 — masquerading-attack survival", RunFigure6),
	"figure7":    artifact("Fig. 7 — confidence score and retraining", RunFigure7),
	"table8":     artifact("Table VIII — battery consumption", RunTable8),
	"overhead":   artifact("Section V-H — system overhead", RunOverhead),
	"ablations":  artifact("Extra — design-choice ablations", RunAblations),
	"roc":        artifact("Extension — ROC / EER of the headline configuration", RunROC),
	"unlearning": artifact("Extension — machine-unlearning model maintenance", RunUnlearning),
}

// IDs lists the registered experiment ids in stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns the human title of one experiment id.
func Title(id string) (string, error) {
	r, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return r.title, nil
}

// Run executes one experiment by id against the shared data substrate.
func Run(id string, d *Data) (Report, error) {
	r, ok := registry[id]
	if !ok {
		return Report{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	text, err := r.run(d)
	if err != nil {
		return Report{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return Report{ID: id, Title: r.title, Text: text}, nil
}
