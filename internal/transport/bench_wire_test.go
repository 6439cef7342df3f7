package transport

import (
	"os"
	"sync"
	"testing"

	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
	"smarteryou/internal/store"
)

// The wire benches measure the per-window cost of the three ways a window
// can cross the wire: a single request, a batch burst and a streaming
// session. Every bench iterates per WINDOW (one batch op advances the
// counter by its burst size), so ns/op columns compare directly across
// all three. `make bench-wire` runs them and BENCH_auth.json records the
// spread.

const benchBatchSize = 16

// benchWire is the shared trained-server fixture, built once per bench
// binary run: a five-user population, user bench-00 enrolled and trained
// with the paper's combined + context-dispatched mode.
var benchWire struct {
	once    sync.Once
	err     error
	dir     string // the server's store; removed by TestMain
	addr    string
	userID  string
	samples []features.WindowSample
}

func benchWireFixture(b *testing.B) (addr, userID string, samples []features.WindowSample) {
	b.Helper()
	benchWire.once.Do(func() {
		benchWire.err = buildBenchWire()
	})
	if benchWire.err != nil {
		b.Fatalf("wire bench fixture: %v", benchWire.err)
	}
	return benchWire.addr, benchWire.userID, benchWire.samples
}

// TestMain removes the wire-bench fixture's store directory: the fixture
// outlives every single benchmark, so no b.TempDir can own it.
func TestMain(m *testing.M) {
	code := m.Run()
	if benchWire.dir != "" {
		_ = os.RemoveAll(benchWire.dir)
	}
	os.Exit(code)
}

func buildBenchWire() error {
	pop, err := sensing.NewPopulation(5, 777)
	if err != nil {
		return err
	}
	byUser := make(map[string][]features.WindowSample)
	var ctxTrain []features.WindowSample
	for i, u := range pop.Users {
		samples, err := features.Collect(u, features.CollectOptions{
			WindowSeconds:  6,
			SessionSeconds: 60,
			Sessions:       1,
			Seed:           int64(10 + i),
		})
		if err != nil {
			return err
		}
		byUser[u.ID] = samples
		ctxTrain = append(ctxTrain, samples...)
	}
	det, err := ctxdetect.Train(ctxdetect.FromSamples(ctxTrain), ctxdetect.Config{Seed: 1, Trees: 10})
	if err != nil {
		return err
	}
	if benchWire.dir, err = os.MkdirTemp("", "smarteryou-bench-*"); err != nil {
		return err
	}
	st, err := store.Open(benchWire.dir, store.Options{NoSync: true})
	if err != nil {
		return err
	}
	srv, err := NewServer(ServerConfig{Key: testKey, Detector: det, Store: st})
	if err != nil {
		return err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	const user = "user-00"
	seed := make(map[string][]features.WindowSample)
	for id, s := range byUser {
		if id != user {
			seed[id] = s
		}
	}
	if err := srv.SeedPopulation(seed); err != nil {
		return err
	}
	client, err := NewClient(ClientConfig{Addr: addr.String(), Key: testKey})
	if err != nil {
		return err
	}
	if _, err := client.Enroll(user, byUser[user]); err != nil {
		return err
	}
	if _, err := client.Train(user, TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: 3}); err != nil {
		return err
	}
	// The server, its listener and its store live for the rest of the
	// bench binary.
	benchWire.addr = addr.String()
	benchWire.userID = user
	benchWire.samples = byUser[user]
	return nil
}

func benchWireSession(b *testing.B) *Session {
	b.Helper()
	addr, _, _ := benchWireFixture(b)
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := client.NewSession()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = sess.Close() })
	return sess
}

// reportWindowsPerSec turns the elapsed time into the headline
// windows/sec metric.
func reportWindowsPerSec(b *testing.B) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "windows/sec")
	}
}

// BenchmarkWireAuthSingleV2 is one envelope round trip per window over a
// kept-alive session: fixed-width payload encode, no JSON or base64 on
// either side.
func BenchmarkWireAuthSingleV2(b *testing.B) {
	sess := benchWireSession(b)
	_, userID, samples := benchWireFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Authenticate(userID, samples[i%len(samples)]); err != nil {
			b.Fatal(err)
		}
	}
	reportWindowsPerSec(b)
}

// BenchmarkWireAuthBatch amortizes the round trip: bursts of
// benchBatchSize windows per envelope, one HMAC and one model resolution
// per burst. The loop advances per window, so ns/op stays per-window.
func BenchmarkWireAuthBatch(b *testing.B) {
	sess := benchWireSession(b)
	_, userID, samples := benchWireFixture(b)
	burst := make([]features.WindowSample, benchBatchSize)
	for i := range burst {
		burst[i] = samples[i%len(samples)]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := benchBatchSize
		if rest := b.N - done; rest < n {
			n = rest
		}
		if _, err := sess.AuthenticateBatch(userID, burst[:n]); err != nil {
			b.Fatal(err)
		}
		done += n
	}
	reportWindowsPerSec(b)
}

// BenchmarkWireAuthStream holds a streaming session: handshake once, then
// raw window frames in and decision frames out with a pipeline of 32
// windows in flight — the continuous-authentication shape.
func BenchmarkWireAuthStream(b *testing.B) {
	sess := benchWireSession(b)
	_, userID, samples := benchWireFixture(b)
	st, err := sess.StartStream(userID)
	if err != nil {
		b.Fatal(err)
	}
	const inflightMax = 32
	b.ReportAllocs()
	b.ResetTimer()
	inflight := 0
	for i := 0; i < b.N; i++ {
		if err := st.Push(samples[i%len(samples)]); err != nil {
			b.Fatal(err)
		}
		inflight++
		if inflight == inflightMax {
			if _, err := st.Recv(); err != nil {
				b.Fatal(err)
			}
			inflight--
		}
	}
	for ; inflight > 0; inflight-- {
		if _, err := st.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportWindowsPerSec(b)
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}
