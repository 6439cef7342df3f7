package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"smarteryou/internal/features"
	"smarteryou/internal/ml"
	"smarteryou/internal/sensing"
	"smarteryou/internal/stats"
)

// sampleVectors is the oracle's sampling: one fresh slice per window,
// subsampled uniformly without replacement down to max when max > 0.
func sampleVectors(samples []features.WindowSample, vector func(features.WindowSample) []float64, max int, rng *rand.Rand) [][]float64 {
	idx := rng.Perm(len(samples))
	if max > 0 && max < len(idx) {
		idx = idx[:max]
	}
	out := make([][]float64, len(idx))
	for i, j := range idx {
		out[i] = vector(samples[j])
	}
	return out
}

// oracleGroup is one of the oracle's groups: a copy of each class's
// windows of one context.
type oracleGroup struct {
	key             string
	legit, impostor []features.WindowSample
}

// oracleGroups splits the windows as Fit documents it, by copying them:
// one unified group, or one per coarse context with both classes, in
// ModelKeys order.
func oracleGroups(legit, impostor []features.WindowSample, mode Mode) []oracleGroup {
	if !mode.UseContext {
		return []oracleGroup{{unifiedKey, legit, impostor}}
	}
	legitBy, impostorBy := features.SplitByCoarseContext(legit), features.SplitByCoarseContext(impostor)
	var out []oracleGroup
	for _, ctx := range []sensing.CoarseContext{sensing.CoarseStationary, sensing.CoarseMoving} {
		if lg, im := legitBy[ctx], impostorBy[ctx]; len(lg) > 0 && len(im) > 0 {
			out = append(out, oracleGroup{ctx.String(), lg, im})
		}
	}
	return out
}

// fitRowByRow is Fit with copied groups, one slice per sampled window and
// a standardized copy of every row, its groups fitted one after another:
// the oracle Fit's in-place groups, shared row array and in-place
// standardization must match bit for bit.
func fitRowByRow[C ml.BinaryClassifier](legit, impostor []features.WindowSample, cfg TrainConfig, vector func(features.WindowSample) []float64, newClassifier func() C) (map[string]Scorer[C], error) {
	cfg = cfg.withDefaults()
	groups := oracleGroups(legit, impostor, cfg.Mode)
	out := make(map[string]Scorer[C], len(groups))
	for i, g := range groups {
		rng := rand.New(rand.NewSource(groupSeed(cfg.Seed, i)))
		legitVecs := sampleVectors(g.legit, vector, cfg.MaxPerClass, rng)
		impostorVecs := sampleVectors(g.impostor, vector, cfg.MaxPerClass, rng)
		var x [][]float64
		var y []bool
		for _, v := range legitVecs {
			x, y = append(x, v), append(y, true)
		}
		for _, v := range impostorVecs {
			x, y = append(x, v), append(y, false)
		}
		std, err := stats.FitStandardizer(x)
		if err != nil {
			return nil, err
		}
		xs := make([][]float64, len(x))
		for j, row := range x {
			xs[j] = std.Transform(row)
		}
		clf := newClassifier()
		if err := clf.Fit(xs, y); err != nil {
			return nil, err
		}
		threshold, err := calibrate(clf, xs[:len(legitVecs)], xs[len(legitVecs):], cfg.TargetFRR)
		if err != nil {
			return nil, err
		}
		out[g.key] = Scorer[C]{Std: std, Clf: clf, Threshold: threshold}
	}
	return out, nil
}

// TestFitMatchesRowByRow checks that Train publishes the bytes the
// row-by-row oracle publishes, in unified and context mode, with every
// window and with MaxPerClass subsampling, and that Fit over a classifier
// that copies its rows and one that keeps them trains the same models.
// Each context has more than 400 impostor windows, so MaxPerClass 400
// draws a strict subset and a change in the draw order shows.
func TestFitMatchesRowByRow(t *testing.T) {
	pop, err := sensing.NewPopulation(6, 4242)
	if err != nil {
		t.Fatal(err)
	}
	var legit, impostor []features.WindowSample
	for i, u := range pop.Users {
		samples, err := features.Collect(u, features.CollectOptions{
			WindowSeconds: 6, SessionSeconds: 270, Sessions: 2, Seed: int64(70 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			legit = samples
		} else {
			impostor = append(impostor, samples...)
		}
	}
	for ctx, ws := range features.SplitByCoarseContext(impostor) {
		if len(ws) <= 400 {
			t.Fatalf("%v has %d impostor windows, want more than 400", ctx, len(ws))
		}
	}

	for _, mode := range []Mode{{Combined: true}, {Combined: true, UseContext: true}, {UseContext: true}} {
		for _, max := range []int{0, 400} {
			cfg := TrainConfig{Mode: mode, MaxPerClass: max, Seed: 11}
			name := fmt.Sprintf("%v/max=%d", mode, max)

			bundle, err := Train(legit, impostor, cfg)
			if err != nil {
				t.Fatalf("%s: Train: %v", name, err)
			}
			want, err := fitRowByRow(legit, impostor, cfg.withDefaults(),
				func(s features.WindowSample) []float64 { return s.Vector(mode.Combined) },
				func() *ml.KRR { return ml.NewKRR(1) })
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			oracle := &ModelBundle{Mode: mode, Models: map[string]*ContextModel{}}
			for key, s := range want {
				oracle.Models[key] = &ContextModel{Std: s.Std, KRR: s.Clf, Threshold: s.Threshold}
			}
			got, err := json.Marshal(bundle)
			if err != nil {
				t.Fatal(err)
			}
			exp, err := json.Marshal(oracle)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, exp) {
				t.Errorf("%s: Train's bundle differs from the row-by-row oracle's", name)
			}
		}
	}

	cfg := TrainConfig{Mode: Mode{Combined: true, UseContext: true}, MaxPerClass: 400, Seed: 5}
	appendVec := func(dst []float64, s features.WindowSample) []float64 { return s.AppendVector(dst, true) }
	vec := func(s features.WindowSample) []float64 { return s.Vector(true) }
	checkFit(t, "knn", legit, impostor, cfg, appendVec, vec, ml.NewKNN)
	checkFit(t, "online krr", legit, impostor, cfg, appendVec, vec, func() *onlineKRR { return &onlineKRR{rho: 1} })
}

// checkFit compares Fit with the oracle over one classifier.
func checkFit[C ml.BinaryClassifier](t *testing.T, name string, legit, impostor []features.WindowSample, cfg TrainConfig, appendVec func([]float64, features.WindowSample) []float64, vec func(features.WindowSample) []float64, newClassifier func() C) {
	t.Helper()
	got, err := Fit(legit, impostor, cfg, appendVec, newClassifier)
	if err != nil {
		t.Fatalf("%s: Fit: %v", name, err)
	}
	want, err := fitRowByRow(legit, impostor, cfg, vec, newClassifier)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Fit's models differ from the row-by-row oracle's", name)
	}
}
