package smarteryou_test

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
	"smarteryou/internal/store"
	"smarteryou/internal/transport"
)

// exactCounts is what TestExactCounts checks: every count must equal its
// entry exactly. A count that rises is a regression; one that falls is
// lowered here in the same change. A /allocs row is heap allocations
// (runtime.MemStats.Mallocs, client and server together) per operation,
// rounded to the nearest integer; a /reads or /writes row is calls on the
// client's connection per operation. bash benchmark/run.sh reports the
// same paths averaged over concurrent sessions, mixed shapes and
// background work, so its figures are near these, not equal to them.
var exactCounts = []struct {
	row  string
	want float64
}{
	{"single/allocs", 47},           // one Session.Authenticate round trip
	{"single/reads", 2},             // frame header, then body
	{"single/writes", 2},            // frame header, then body
	{"batch16/allocs", 152},         // one 16-window Session.AuthenticateBatch
	{"batch16/reads", 2},            // per burst
	{"batch16/writes", 2},           // per burst
	{"stream/allocs", 10},           // one lockstep Stream.Authenticate window
	{"stream/reads", 2},             // decision frame header, then body
	{"stream/writes", 1},            // one window frame
	{"enroll16/allocs", 3},          // one NoSync store Enroll of 16 windows that replace the user's
	{"enroll16/wal_bytes", 2682350}, // log after countWarmup+countOps such enrolls: 304.81 B a window
	{"device/allocs", 6},            // phone + watch extraction with one Extractor, then Authenticate
}

const (
	countWarmup = 50  // operations run before counting: pools, plans and caches fill
	countOps    = 500 // operations counted per path
)

// TestExactCounts drives each hot path countOps times after a warm-up,
// over an in-process server on loopback for the wire paths, and compares
// what it counted with exactCounts. Under the race detector the
// instrumentation allocates, so only the allocation rows are skipped.
func TestExactCounts(t *testing.T) {
	got := map[string]float64{}
	countWire(t, got)
	countEnroll(t, got)
	countDevice(t, got)

	for _, c := range exactCounts {
		v, ok := got[c.row]
		delete(got, c.row)
		switch {
		case !ok:
			t.Errorf("%s: not measured", c.row)
		case raceEnabled && strings.HasSuffix(c.row, "/allocs"):
		case v != c.want:
			t.Errorf("%s = %s, table says %s: a rise is a regression, a fall lowers the table",
				c.row, strconv.FormatFloat(v, 'f', -1, 64), strconv.FormatFloat(c.want, 'f', -1, 64))
		}
	}
	for row, v := range got {
		t.Errorf("%s = %s has no row in exactCounts", row, strconv.FormatFloat(v, 'f', -1, 64))
	}
}

// connCounts counts the calls on every connection the client dials.
type connCounts struct{ reads, writes atomic.Int64 }

type countingConn struct {
	net.Conn
	c *connCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	c.c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c countingConn) Write(p []byte) (int, error) {
	c.c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *connCounts) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return countingConn{conn, c}, nil
}

// countPath runs op countWarmup times, then countOps times while counting,
// and records name/allocs and, when conns is not nil, name/reads and
// name/writes. Allocation rows are rounded; the others must divide
// exactly, so a stray call shows as a fraction.
func countPath(t *testing.T, got map[string]float64, name string, conns *connCounts, op func(i int) error) {
	t.Helper()
	for i := 0; i < countWarmup; i++ {
		if err := op(i); err != nil {
			t.Fatalf("%s warm-up: %v", name, err)
		}
	}
	var before, after runtime.MemStats
	var reads, writes int64
	if conns != nil {
		reads, writes = conns.reads.Load(), conns.writes.Load()
	}
	runtime.ReadMemStats(&before)
	for i := 0; i < countOps; i++ {
		if err := op(i); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	runtime.ReadMemStats(&after)
	got[name+"/allocs"] = math.Round(float64(after.Mallocs-before.Mallocs) / countOps)
	if conns != nil {
		got[name+"/reads"] = float64(conns.reads.Load()-reads) / countOps
		got[name+"/writes"] = float64(conns.writes.Load()-writes) / countOps
	}
}

// countWire counts the three ways a window crosses the wire against one
// trained server: a five-user population, user-00 enrolled and trained
// with the paper's combined, context-dispatched mode.
func countWire(t *testing.T, got map[string]float64) {
	pop, err := sensing.NewPopulation(5, 777)
	if err != nil {
		t.Fatal(err)
	}
	byUser := make(map[string][]features.WindowSample)
	var ctxTrain []features.WindowSample
	for i, u := range pop.Users {
		samples, err := features.Collect(u, features.CollectOptions{
			WindowSeconds: 6, SessionSeconds: 60, Sessions: 1, Seed: int64(10 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		byUser[u.ID] = samples
		ctxTrain = append(ctxTrain, samples...)
	}
	det, err := ctxdetect.Train(ctxdetect.FromSamples(ctxTrain), ctxdetect.Config{Seed: 1, Trees: 10})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	key := []byte("exact-counts-key")
	srv, err := transport.NewServer(transport.ServerConfig{Key: key, Detector: det, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	const user = "user-00"
	samples := byUser[user]
	delete(byUser, user)
	if err := srv.SeedPopulation(byUser); err != nil {
		t.Fatal(err)
	}

	var conns connCounts
	client, err := transport.NewClient(transport.ClientConfig{Addr: addr.String(), Key: key, Dial: conns.dial})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	if _, err := client.Enroll(user, samples); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Train(user, transport.TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sess.Close() })

	countPath(t, got, "single", &conns, func(i int) error {
		_, err := sess.Authenticate(user, samples[i%len(samples)])
		return err
	})
	burst := make([]features.WindowSample, 16)
	for i := range burst {
		burst[i] = samples[i%len(samples)]
	}
	countPath(t, got, "batch16", &conns, func(int) error {
		_, err := sess.AuthenticateBatch(user, burst)
		return err
	})
	stream, err := sess.StartStream(user)
	if err != nil {
		t.Fatal(err)
	}
	countPath(t, got, "stream", &conns, func(i int) error {
		_, err := stream.Authenticate(samples[i%len(samples)])
		return err
	})
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
}

// countEnroll counts one durable-store enroll of 16 windows without fsync,
// and the log bytes of a fresh store once every enroll, warm-up included,
// has landed. Each enroll replaces the user's windows: an appending one
// also pays for the amortised growth of the user's window slice, a
// fraction of an allocation that moves with the number of enrolls.
func countEnroll(t *testing.T, got map[string]float64) {
	s, err := store.Open(t.TempDir(), store.Options{SnapshotEvery: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	win := storeBenchWindows("bench", 16)
	users := make([]string, 64)
	for i := range users {
		users[i] = fmt.Sprintf("user-%04d", i)
	}
	countPath(t, got, "enroll16", nil, func(i int) error {
		return s.Enroll(users[i%len(users)], win, true)
	})
	got["enroll16/wal_bytes"] = float64(s.Stats().WALBytes)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// countDevice counts the on-phone continuous path: one 6 s slice of a
// phone and a watch recording through one reused Extractor, then
// Authenticate.
func countDevice(t *testing.T, got map[string]float64) {
	auth, _ := buildBenchAuthenticator(t)
	phone, watch := benchStreams(t)
	per := int(6 * sensing.SampleRate)
	var slices [][2]*sensing.Stream
	for k := 0; (k+1)*per <= len(phone.Samples); k++ {
		view := func(s *sensing.Stream) *sensing.Stream {
			return &sensing.Stream{Rate: s.Rate, Samples: s.Samples[k*per : (k+1)*per]}
		}
		slices = append(slices, [2]*sensing.Stream{view(phone), view(watch)})
	}
	ex := features.NewExtractor()
	countPath(t, got, "device", nil, func(i int) error {
		sl := slices[i%len(slices)]
		pw, err := ex.ExtractWindows(sl[0], 6)
		if err != nil {
			return err
		}
		ww, err := ex.ExtractWindows(sl[1], 6)
		if err != nil {
			return err
		}
		_, err = auth.Authenticate(features.WindowSample{Context: sensing.ContextMovingUse, Phone: pw[0], Watch: ww[0]})
		return err
	})
}
