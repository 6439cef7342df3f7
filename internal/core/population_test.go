package core

import (
	"bytes"
	"fmt"
	"testing"

	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
)

// TestTrainPopulationMatchesTrain: a population held in per-user
// segments, empty ones among them, trains the bundle Train builds on the
// segments' concatenation, byte for byte, in unified and context mode,
// with every window and with MaxPerClass subsampling; and a population
// with no window fails as an empty one does.
func TestTrainPopulationMatchesTrain(t *testing.T) {
	pop, err := sensing.NewPopulation(5, 515)
	if err != nil {
		t.Fatal(err)
	}
	var legit, impostor []features.WindowSample
	segs := [][]features.WindowSample{nil}
	for i, u := range pop.Users {
		samples, err := features.Collect(u, features.CollectOptions{
			WindowSeconds: 6, SessionSeconds: 120, Sessions: 1, Seed: int64(30 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			legit = samples
			continue
		}
		impostor = append(impostor, samples...)
		segs = append(segs, samples, []features.WindowSample{})
	}

	for _, mode := range []Mode{{Combined: true}, {Combined: true, UseContext: true}, {UseContext: true}} {
		for _, max := range []int{0, 30} {
			cfg := TrainConfig{Mode: mode, MaxPerClass: max, Seed: 7}
			name := fmt.Sprintf("%v/max=%d", mode, max)
			want, err := Train(legit, impostor, cfg)
			if err != nil {
				t.Fatalf("%s: Train: %v", name, err)
			}
			got, err := TrainPopulation(legit, segs, cfg)
			if err != nil {
				t.Fatalf("%s: TrainPopulation: %v", name, err)
			}
			wantBlob, err := want.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			gotBlob, err := got.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBlob, wantBlob) {
				t.Errorf("%s: TrainPopulation's bundle differs from Train's on the concatenation", name)
			}
		}
	}
	if _, err := TrainPopulation(legit, [][]features.WindowSample{nil, {}}, TrainConfig{}); err == nil {
		t.Errorf("TrainPopulation over empty segments succeeded")
	}
}
