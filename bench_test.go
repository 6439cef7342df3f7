// Benchmarks: one per paper artifact (BenchmarkArtifact/<id>) plus the
// component and ablation benches DESIGN.md calls out. Artifact benches run
// the registry `cmd/experiments -run <id>` runs, at the reduced quick
// scale so `go test -bench=. -benchmem` stays tractable; the paper-scale
// numbers in EXPERIMENTS.md come from the cmd/experiments harness.
package smarteryou_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"smarteryou/internal/attack"
	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/dsp"
	"smarteryou/internal/experiments"
	"smarteryou/internal/features"
	"smarteryou/internal/ml"
	"smarteryou/internal/sensing"
	"smarteryou/internal/stats"
	"smarteryou/internal/store"
)

var (
	benchDataOnce sync.Once
	benchData     *experiments.Data
)

// quickBenchData builds (once) the shared reduced campaign substrate and
// pre-warms the window caches so artifact benches measure evaluation, not
// first-touch data generation.
func quickBenchData(b *testing.B) *experiments.Data {
	b.Helper()
	benchDataOnce.Do(func() {
		d, err := experiments.NewData(experiments.QuickConfig())
		if err != nil {
			b.Fatalf("NewData: %v", err)
		}
		for i := 0; i < d.Cfg.Users; i++ {
			if _, err := d.UserWindows(i, 6); err != nil {
				b.Fatalf("warm cache: %v", err)
			}
		}
		benchData = d
	})
	return benchData
}

// --- Artifact benches: one per registered paper artifact. ---

// BenchmarkArtifact regenerates every artifact through the experiment
// registry, exactly as `cmd/experiments -run <id>` does, one sub-benchmark
// per id (BenchmarkArtifact/figure6, ...). Table VII is memoised per Data,
// so table1 and table7 time the memo after their first iteration;
// BenchmarkTable7_Headline times the evaluation itself.
func BenchmarkArtifact(b *testing.B) {
	d := quickBenchData(b)
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(id, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable7_Headline(b *testing.B) {
	d := quickBenchData(b)
	for i := 0; i < b.N; i++ {
		if _, err := d.EvaluateAuth(experiments.EvalOptions{
			Devices:    experiments.DeviceCombination,
			UseContext: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component benches: the real per-window costs of Section V-H. ---

// benchStreams returns a fixed 60 s two-device recording.
func benchStreams(b testing.TB) (*sensing.Stream, *sensing.Stream) {
	b.Helper()
	pop, err := sensing.NewPopulation(1, 7)
	if err != nil {
		b.Fatal(err)
	}
	sess := sensing.Session{User: pop.Users[0], Context: sensing.ContextMovingUse, Seconds: 60, Seed: 3}
	phone, err := sess.Generate(sensing.DevicePhone)
	if err != nil {
		b.Fatal(err)
	}
	watch, err := sess.Generate(sensing.DeviceWatch)
	if err != nil {
		b.Fatal(err)
	}
	return phone, watch
}

func BenchmarkSensorGeneration(b *testing.B) {
	pop, err := sensing.NewPopulation(1, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sensing.Session{
			User: pop.Users[0], Context: sensing.ContextMovingUse, Seconds: 6, Seed: int64(i),
		}.Generate(sensing.DevicePhone)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtraction60sStream extracts one 60 s phone stream per
// op, ten 6 s windows; ns/window is the per-window figure.
func BenchmarkFeatureExtraction60sStream(b *testing.B) {
	phone, _ := benchStreams(b)
	windows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wins, err := features.ExtractWindows(phone, 6)
		if err != nil {
			b.Fatal(err)
		}
		windows += len(wins)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(windows), "ns/window")
}

func BenchmarkFFT300(b *testing.B) {
	x := make([]float64, 300) // one 6 s window at 50 Hz
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsp.AmplitudeSpectrum(x, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKSTest(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64() + 0.3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.KSTest(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// paperSizedTrainingSet builds the N=720, M=28 problem of Section V-H1.
func paperSizedTrainingSet(b *testing.B) ([][]float64, []bool) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	x := make([][]float64, 720)
	y := make([]bool, 720)
	for i := range x {
		row := make([]float64, 28)
		base := -1.0
		if i%2 == 0 {
			base = 1.0
		}
		for j := range row {
			row[j] = base + rng.NormFloat64()
		}
		x[i] = row
		y[i] = i%2 == 0
	}
	return x, y
}

func BenchmarkKRRTrain(b *testing.B) {
	x, y := paperSizedTrainingSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		krr := ml.NewKRR(1)
		if err := krr.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: Eq. 7's M x M primal solve vs Eq. 6's N x N dual solve.
func BenchmarkKRRPrimalVsDual(b *testing.B) {
	x, y := paperSizedTrainingSet(b)
	b.Run("primal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			krr := &ml.KRR{Rho: 1, Kernel: ml.IdentityKernel{}, Mode: ml.KRRModePrimal}
			if err := krr.Fit(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			krr := &ml.KRR{Rho: 1, Kernel: ml.IdentityKernel{}, Mode: ml.KRRModeDual}
			if err := krr.Fit(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSVMTrain(b *testing.B) {
	x, y := paperSizedTrainingSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svm := ml.NewSVM()
		if err := svm.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomForestTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := make([][]float64, 400)
	labels := make([]string, 400)
	for i := range x {
		row := make([]float64, 14)
		label := "stationary"
		base := 0.0
		if i%2 == 0 {
			label = "moving"
			base = 2.0
		}
		for j := range row {
			row[j] = base + rng.NormFloat64()
		}
		x[i] = row
		labels[i] = label
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf := ml.NewRandomForest()
		if err := rf.FitClasses(x, labels); err != nil {
			b.Fatal(err)
		}
	}
}

// buildBenchAuthenticator trains a small production stack once.
func buildBenchAuthenticator(b testing.TB) (*core.Authenticator, features.WindowSample) {
	b.Helper()
	pop, err := sensing.NewPopulation(4, 11)
	if err != nil {
		b.Fatal(err)
	}
	perUser := make([][]features.WindowSample, 4)
	for i, u := range pop.Users {
		perUser[i], err = features.Collect(u, features.CollectOptions{
			WindowSeconds: 6, SessionSeconds: 90, Sessions: 1, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	var impostor []features.WindowSample
	for i := 1; i < 4; i++ {
		impostor = append(impostor, perUser[i]...)
	}
	det, err := ctxdetect.Train(ctxdetect.FromSamples(impostor), ctxdetect.Config{Seed: 1, Trees: 15})
	if err != nil {
		b.Fatal(err)
	}
	bundle, err := core.Train(perUser[0], impostor, core.TrainConfig{
		Mode: core.Mode{Combined: true, UseContext: true}, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	auth, err := core.NewAuthenticator(det, bundle)
	if err != nil {
		b.Fatal(err)
	}
	return auth, perUser[0][0]
}

// BenchmarkAuthenticateWindow measures the paper's "testing time": context
// detection + model dispatch + classification for one 6 s window.
func BenchmarkAuthenticateWindow(b *testing.B) {
	auth, sample := buildBenchAuthenticator(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := auth.Authenticate(sample); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd60sStream is feature extraction + authentication, the
// complete per-window path of the testing module, over one 60 s phone and
// watch recording per op, ten 6 s windows; ns/window is the per-window
// figure.
func BenchmarkEndToEnd60sStream(b *testing.B) {
	auth, _ := buildBenchAuthenticator(b)
	phone, watch := benchStreams(b)
	windows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pw, err := features.ExtractWindows(phone, 6)
		if err != nil {
			b.Fatal(err)
		}
		ww, err := features.ExtractWindows(watch, 6)
		if err != nil {
			b.Fatal(err)
		}
		for k := range pw {
			if _, err := auth.Authenticate(features.WindowSample{
				Context: sensing.ContextMovingUse, Phone: pw[k], Watch: ww[k],
			}); err != nil {
				b.Fatal(err)
			}
		}
		windows += len(pw)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(windows), "ns/window")
}

// Ablation: pruned 7-feature set vs the full 9-candidate set.
func BenchmarkFeaturePruning(b *testing.B) {
	d := quickBenchData(b)
	b.Run("pruned7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := d.EvaluateAuth(experiments.EvalOptions{
				Devices:    experiments.DevicePhoneOnly,
				UseContext: true,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full9", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := d.EvaluateAuth(experiments.EvalOptions{
				Devices:    experiments.DevicePhoneOnly,
				UseContext: true,
				Extract: func(w features.WindowSample) []float64 {
					return w.Phone.FullVector()
				},
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMasqueradeTrial(b *testing.B) {
	auth, _ := buildBenchAuthenticator(b)
	pop, err := sensing.NewPopulation(4, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := attack.Run(auth, attack.Scenario{
			Victim:         pop.Users[0],
			Attackers:      pop.Users[1:2],
			Trials:         1,
			HorizonSeconds: 24,
			Seed:           int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelBundleSerialization(b *testing.B) {
	auth, _ := buildBenchAuthenticator(b)
	_ = auth
	pop, _ := sensing.NewPopulation(2, 13)
	legit, err := features.Collect(pop.Users[0], features.CollectOptions{
		WindowSeconds: 6, SessionSeconds: 60, Sessions: 1, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	impostor, err := features.Collect(pop.Users[1], features.CollectOptions{
		WindowSeconds: 6, SessionSeconds: 60, Sessions: 1, Seed: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	bundle, err := core.Train(legit, impostor, core.TrainConfig{
		Mode: core.Mode{Combined: true, UseContext: false}, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := bundle.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.UnmarshalModelBundle(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Durable-store benches: the server's enroll hot path. ---

// storeBenchWindows builds n windows of realistic shape (full-precision
// floats in every sensor slot) without running the sensing pipeline.
func storeBenchWindows(user string, n int) []features.WindowSample {
	out := make([]features.WindowSample, n)
	for i := range out {
		v := float64(i)*0.618033988749895 + 0.123456789
		sf := features.SensorFeatures{
			Mean: v, Var: v + 1, Max: v + 2, Min: v - 2, Ran: 4,
			Peak: v * 3, PeakF: 1.5, Peak2: v / 2, Peak2F: 3.25,
		}
		df := features.DeviceFeatures{Acc: sf, Gyr: sf}
		out[i] = features.WindowSample{
			UserID: user, Context: sensing.ContextMovingUse,
			Day: float64(i % 7), Phone: df, Watch: df,
		}
	}
	return out
}

// BenchmarkStoreEnroll is one sequential enroll (16 windows, fsync on the
// acknowledgement path) against a single-shard and an 8-shard store.
// Sequential writers see the same latency either way — sharding pays off
// under concurrency, not here.
func BenchmarkStoreEnroll(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := store.Open(b.TempDir(), store.Options{Shards: shards, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			win := storeBenchWindows("bench", 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Enroll(fmt.Sprintf("user-%04d", i%64), win, false); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := s.Stats(); st.Windows > 0 {
				b.ReportMetric(float64(st.WALBytes)/float64(st.Windows), "bytes/window")
			}
		})
	}
}

// BenchmarkStoreEnrollParallel is the acceptance benchmark for sharding:
// 8 goroutines enrolling distinct users concurrently. On one shard every
// writer queues behind the same mutex and fsync; with 8 shards the user
// hash spreads writers across independent WALs so their fsyncs overlap.
func BenchmarkStoreEnrollParallel(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := store.Open(b.TempDir(), store.Options{Shards: shards, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			win := storeBenchWindows("bench", 16)
			var nextWriter atomic.Int64
			b.SetParallelism(8) // 8 concurrent writers regardless of GOMAXPROCS
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				user := fmt.Sprintf("user-%04d", nextWriter.Add(1))
				for pb.Next() {
					if err := s.Enroll(user, win, false); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkStoreRecovery replays a 10 000-window population (binary WAL,
// no snapshot) — the restart cost a crashed server pays before serving.
func BenchmarkStoreRecovery(b *testing.B) {
	dir := b.TempDir()
	s, err := store.Open(dir, store.Options{SnapshotEvery: -1, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	win := storeBenchWindows("bench", 16)
	for i := 0; i < 625; i++ { // 10 000 windows
		if err := s.Enroll(fmt.Sprintf("user-%03d", i%32), win, false); err != nil {
			b.Fatal(err)
		}
	}
	walBytes := s.Stats().WALBytes
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := store.Open(dir, store.Options{SnapshotEvery: -1, NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		if st := s.Stats(); st.Windows != 10000 {
			b.Fatalf("recovered %d windows, want 10000", st.Windows)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(walBytes)/10000, "bytes/window")
}

// Machine-unlearning benches: the O(M^2) online update of Section V-I's
// fast path vs the O(M^3)-per-solve full retrain.
func BenchmarkIncrementalKRRAdd(b *testing.B) {
	inc, err := ml.NewIncrementalKRR(1, 28)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 28)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x[0] = rng.NormFloat64()
		if err := inc.AddSample(x, i%2 == 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncrementalKRRAddRemove(b *testing.B) {
	inc, err := ml.NewIncrementalKRR(1, 28)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	// Pre-fill a sliding window.
	window := make([][]float64, 0, 400)
	for i := 0; i < 400; i++ {
		x := make([]float64, 28)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		if err := inc.AddSample(x, i%2 == 0); err != nil {
			b.Fatal(err)
		}
		window = append(window, x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, 28)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		if err := inc.AddSample(x, i%2 == 0); err != nil {
			b.Fatal(err)
		}
		oldest := window[0]
		window = append(window[1:], x)
		if err := inc.RemoveSample(oldest, i%2 == 0); err != nil {
			b.Fatal(err)
		}
	}
}
