package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
)

// Figure5Point is one point of the training-data-size sweep.
type Figure5Point struct {
	DataSeconds float64
	Context     sensing.CoarseContext
	Devices     DeviceSet
	Accuracy    float64
}

// Figure5Result reproduces Fig. 5: authentication accuracy versus training
// data size under the two contexts for the three device sets. The paper's
// observation — accuracy peaks around 800 and then *decreases* — is
// reproduced through behavioural drift: a larger training buffer reaches
// further back in time, and the oldest windows no longer match the user's
// current behaviour. (The paper attributes the decline to "over-fitting";
// staleness is the mechanism that makes that decline reproducible.)
type Figure5Result struct {
	Sizes  []float64
	Points []Figure5Point
}

// Figure5Sizes is the sweep grid in seconds of legitimate training data.
var Figure5Sizes = []float64{100, 200, 400, 600, 800, 1000, 1200}

// RunFigure5 sweeps the training-set size over the paper's default grid.
// Training windows are taken newest-first (the device's retention buffer),
// and testing uses held-out sessions recorded after the collection
// campaign (day Days+1).
func RunFigure5(d *Data) (*Figure5Result, error) {
	return RunFigure5Sweep(d, Figure5Sizes)
}

// RunFigure5Sweep is RunFigure5 over an explicit size grid, so callers
// (benchmarks, partial sweeps) pass their grid instead of mutating the
// package default.
func RunFigure5Sweep(d *Data, sizes []float64) (*Figure5Result, error) {
	res := &Figure5Result{Sizes: sizes}
	det, err := d.Detector(6)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(d.Cfg.Seed * 90001))

	type cell struct {
		correct, total int
	}
	acc := map[string]*cell{}
	key := func(size float64, ctx sensing.CoarseContext, devices DeviceSet) string {
		return fmt.Sprintf("%g/%v/%v", size, ctx, devices)
	}

	for target := 0; target < d.Cfg.Targets; target++ {
		legitAll, err := d.fig5Windows(target)
		if err != nil {
			return nil, err
		}
		// Newest-first: the buffer retains the most recent behaviour. The
		// two coarse contexts are interleaved so a small buffer still
		// holds data for both per-context models.
		legitSorted := interleaveNewestFirst(legitAll)

		legitTest, err := d.DeploymentWindows(target, 6)
		if err != nil {
			return nil, err
		}
		var impostorTest []features.WindowSample
		for i := 0; i < d.Cfg.Users; i++ {
			if i == target {
				continue
			}
			dep, err := d.DeploymentWindows(i, 6)
			if err != nil {
				return nil, err
			}
			impostorTest = append(impostorTest, dep...)
		}
		impostorTest = sampleWindows(impostorTest, len(legitTest), rng)
		impostorPool, err := d.ImpostorWindows(target, 6)
		if err != nil {
			return nil, err
		}

		for _, size := range sizes {
			nLegit := int(size / 6)
			if nLegit < 4 {
				nLegit = 4
			}
			if nLegit > len(legitSorted) {
				nLegit = len(legitSorted)
			}
			legitTrain := legitSorted[:nLegit]
			impostorTrain := sampleWindows(impostorPool, nLegit, rng)
			for _, devices := range []DeviceSet{DeviceCombination, DevicePhoneOnly, DeviceWatchOnly} {
				bundle, err := trainGenericBundle(det, legitTrain, impostorTrain, EvalOptions{
					Devices:       devices,
					UseContext:    true,
					MaxPerClass:   nLegit,
					TargetFRR:     0.03,
					WindowSeconds: 6,
					NewClassifier: EvalOptions{}.withDefaults().NewClassifier,
				}, rng)
				if err != nil {
					return nil, fmt.Errorf("figure5 size=%g: %w", size, err)
				}
				score := func(samples []features.WindowSample, legit bool) error {
					for _, s := range samples {
						accepted, _, err := bundle.authenticate(s)
						if err != nil {
							return err
						}
						c := acc[key(size, s.Context.Coarse(), devices)]
						if c == nil {
							c = &cell{}
							acc[key(size, s.Context.Coarse(), devices)] = c
						}
						c.total++
						if accepted == legit {
							c.correct++
						}
					}
					return nil
				}
				if err := score(legitTest, true); err != nil {
					return nil, err
				}
				if err := score(impostorTest, false); err != nil {
					return nil, err
				}
			}
		}
	}

	for _, size := range sizes {
		for _, ctx := range []sensing.CoarseContext{sensing.CoarseStationary, sensing.CoarseMoving} {
			for _, devices := range []DeviceSet{DeviceCombination, DevicePhoneOnly, DeviceWatchOnly} {
				c := acc[key(size, ctx, devices)]
				if c == nil || c.total == 0 {
					continue
				}
				res.Points = append(res.Points, Figure5Point{
					DataSeconds: size,
					Context:     ctx,
					Devices:     devices,
					Accuracy:    float64(c.correct) / float64(c.total),
				})
			}
		}
	}
	return res, nil
}

// fig5Windows collects the data-size study's finer-grained campaign: one
// short session per context per day over the collection span, so that a
// growing retention buffer reaches back smoothly in time.
func (d *Data) fig5Windows(userIdx int) ([]features.WindowSample, error) {
	return d.cachedWindows(winKey{"fig5", userIdx, 6}, func() ([]features.WindowSample, error) {
		return features.Collect(d.Pop.Users[userIdx], features.CollectOptions{
			WindowSeconds:  6,
			SessionSeconds: 51,
			Sessions:       int(d.Cfg.Days) + 1,
			Days:           d.Cfg.Days,
			Seed:           d.Cfg.Seed*4_000_037 + int64(userIdx)*32452843,
		})
	})
}

// interleaveNewestFirst sorts samples newest-first within each coarse
// context, then merges the two context lists alternately.
func interleaveNewestFirst(samples []features.WindowSample) []features.WindowSample {
	byCtx := features.SplitByCoarseContext(samples)
	var lists [][]features.WindowSample
	for _, ctx := range []sensing.CoarseContext{sensing.CoarseStationary, sensing.CoarseMoving} {
		l := append([]features.WindowSample(nil), byCtx[ctx]...)
		sort.SliceStable(l, func(i, j int) bool { return l[i].Day > l[j].Day })
		lists = append(lists, l)
	}
	out := make([]features.WindowSample, 0, len(samples))
	for i := 0; len(out) < len(samples); i++ {
		for _, l := range lists {
			if i < len(l) {
				out = append(out, l[i])
			}
		}
	}
	return out
}

// Series extracts one plotted line in size order.
func (r *Figure5Result) Series(ctx sensing.CoarseContext, devices DeviceSet) []float64 {
	out := make([]float64, 0, len(r.Sizes))
	for _, size := range r.Sizes {
		for _, p := range r.Points {
			if p.DataSeconds == size && p.Context == ctx && p.Devices == devices {
				out = append(out, p.Accuracy)
			}
		}
	}
	return out
}

// Render prints the two panels of Fig. 5 as series tables.
func (r *Figure5Result) Render() string {
	var b strings.Builder
	b.WriteString("FIGURE 5: accuracy vs training data size under the two contexts\n")
	for _, ctx := range []sensing.CoarseContext{sensing.CoarseStationary, sensing.CoarseMoving} {
		fmt.Fprintf(&b, "\n[%s]\n", ctx)
		fmt.Fprintf(&b, "%-14s", "size (s)")
		for _, s := range r.Sizes {
			fmt.Fprintf(&b, "%8.0f", s)
		}
		b.WriteByte('\n')
		for _, devices := range []DeviceSet{DeviceCombination, DevicePhoneOnly, DeviceWatchOnly} {
			fmt.Fprintf(&b, "%-14s", devices)
			for _, v := range r.Series(ctx, devices) {
				fmt.Fprintf(&b, "%7.1f%%", v*100)
			}
			b.WriteByte('\n')
		}
	}
	for _, ctx := range []sensing.CoarseContext{sensing.CoarseStationary, sensing.CoarseMoving} {
		fmt.Fprintf(&b, "\naccuracy, %s (%%):\n", ctx)
		b.WriteString(asciiPlot(r.Sizes, []plotSeries{
			{Name: "combination", Marker: 'C', Y: scale100(r.Series(ctx, DeviceCombination))},
			{Name: "smartphone", Marker: 'P', Y: scale100(r.Series(ctx, DevicePhoneOnly))},
			{Name: "smartwatch", Marker: 'W', Y: scale100(r.Series(ctx, DeviceWatchOnly))},
		}, 56, 10, "%6.1f"))
	}
	b.WriteString("\nPaper shape: accuracy rises with data size, peaks around 800 s, then\n")
	b.WriteString("declines as stale data enters the training buffer; combination on top.\n")
	return b.String()
}
