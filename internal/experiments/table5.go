package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/stats"
)

// Table5Result reproduces Table V: the confusion matrix of user-agnostic
// context detection with two smartphone sensors.
type Table5Result struct {
	Confusion *stats.ConfusionMatrix
}

// RunTable5 trains the Random Forest on lab-condition data from all users
// with k-fold cross-validation, holding entire users out of each training
// fold so the evaluation is user-agnostic (Section V-E1).
func RunTable5(d *Data) (*Table5Result, error) {
	type userData struct {
		vectors []ctxdetect.LabeledVector
	}
	users := make([]userData, d.Cfg.Users)
	for i := 0; i < d.Cfg.Users; i++ {
		samples, err := d.LabWindows(i, 6)
		if err != nil {
			return nil, fmt.Errorf("table5: lab data user %d: %w", i, err)
		}
		users[i] = userData{vectors: ctxdetect.FromSamples(samples)}
	}

	folds := d.Cfg.Folds
	if folds > d.Cfg.Users {
		folds = d.Cfg.Users
	}
	rng := rand.New(rand.NewSource(d.Cfg.Seed * 41414))
	userFolds, err := stats.KFold(d.Cfg.Users, folds, rng)
	if err != nil {
		return nil, fmt.Errorf("table5: %w", err)
	}

	confusion := stats.NewConfusionMatrix()
	for _, fold := range userFolds {
		var train []ctxdetect.LabeledVector
		for _, ui := range fold.TrainIdx {
			train = append(train, users[ui].vectors...)
		}
		det, err := ctxdetect.Train(train, ctxdetect.Config{Seed: d.Cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("table5: train fold: %w", err)
		}
		for _, ui := range fold.TestIdx {
			for _, lv := range users[ui].vectors {
				got, err := det.DetectVector(lv.Vector)
				if err != nil {
					return nil, fmt.Errorf("table5: detect: %w", err)
				}
				confusion.Observe(lv.Context.String(), got.Context.String())
			}
		}
	}
	return &Table5Result{Confusion: confusion}, nil
}

// Render formats the result in the paper's Table V layout.
func (r *Table5Result) Render() string {
	var b strings.Builder
	b.WriteString("TABLE V: confusion matrix of context detection using two smartphone sensors\n")
	b.WriteString(r.Confusion.String())
	fmt.Fprintf(&b, "\nOverall context accuracy: %.1f%% (paper: >99%%)\n", r.Confusion.Accuracy()*100)
	return b.String()
}
