package smarteryou_test

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/dsp"
	"smarteryou/internal/features"
	"smarteryou/internal/replication"
	"smarteryou/internal/sensing"
	"smarteryou/internal/store"
	"smarteryou/internal/transport"
)

// exactCounts is what TestExactCounts checks: every count must equal its
// entry exactly. A count that rises is a regression; one that falls is
// lowered here in the same change. A /allocs row is heap allocations
// (runtime.MemStats.Mallocs, client and server together) per operation,
// rounded to the nearest integer; a /reads or /writes row is calls on the
// client's connection per operation, a /server_reads or /server_writes
// row the same on the server's end, a /leader_reads or /leader_writes row
// the same on a replication leader's end of its follower's connection. bash benchmark/run.sh reports the
// same paths averaged over concurrent sessions, several users, mixed
// shapes and background work, so its figures are near these, not equal
// to them.
var exactCounts = []struct {
	row  string
	want float64
}{
	{"single/allocs", 0},            // one Session.Authenticate round trip: id and pseudonym come from the connection's identity cache
	{"single/reads", 1},             // the response frame, buffered
	{"single/writes", 1},            // the request frame, sealed in place
	{"single/server_reads", 1},      // the request frame, buffered
	{"single/server_writes", 1},     // the response frame, sealed in place
	{"batch16/allocs", 3},           // one 16-window Session.AuthenticateBatch: the decoded windows, the decoded and the returned decisions
	{"batch16/reads", 1},            // per burst
	{"batch16/writes", 1},           // per burst
	{"batch16/server_reads", 2},     // a 5.4 KB request: a buffer's worth, then the rest
	{"batch16/server_writes", 1},    // per burst
	{"stream/allocs", 0},            // one lockstep Stream.Authenticate window
	{"stream/reads", 1},             // one decision frame
	{"stream/writes", 1},            // one window frame
	{"stream/server_reads", 1},      // one window frame
	{"stream/server_writes", 1},     // one decision frame
	{"stream8/allocs", 0},           // 8 Stream.Pushes, then 8 Recvs: 2.7 KB of windows
	{"stream8/reads", 1},            // the 8 decision frames, buffered
	{"stream8/writes", 1},           // the 8 window frames, written by the first Recv
	{"stream8/server_reads", 1},     // the 8 window frames, buffered
	{"stream8/server_writes", 1},    // the 8 decision frames, written before the next read
	{"enroll16/allocs", 1},          // one NoSync store Enroll of 16 windows that replace the user's: the stored windows (the WAL record goes into the shard's reused batch buffer)
	{"enroll16/wal_bytes", 2682350}, // log after countWarmup+countOps such enrolls: 304.81 B a window
	{"device/allocs", 2},            // phone + watch extraction with one Extractor, then Authenticate
	{"device/transforms", 2},        // dsp engine calls: one batch of both sensors per device
	{"device/bluestein_plans", 0},   // a 6 s window is 300 samples, transformed at 150: both 5-smooth
	{"enroll8/allocs", 2},           // one Client.ReplaceEnrollment of 8 windows, WAL append without fsync: decoded windows, stored windows
	{"enroll8/reads", 1},            // the response frame
	{"enroll8/writes", 1},           // the request frame
	{"enroll8/server_reads", 1},     // the request frame
	{"enroll8/server_writes", 1},    // the response frame
	{"fetch/allocs", 93},            // one full Client.FetchModel of a combined + context bundle
	{"train/allocs", 68},            // one core.Train, combined + context: 8 windows against 504, grouped in place
	{"repl8/allocs", 4},             // one enroll8 with a replication leader and an in-process follower, until the follower applied it: the sink's copy of the record; the follower reuses its pseudonym and its batch buffer and decodes the windows into the slice it stores
	{"repl8/leader_writes", 1},      // the record frame, sealed in the leader's write buffer
	{"repl8/leader_reads", 1},       // the follower's ack: one write on its end, read whole
}

const (
	countWarmup = 50  // operations run before counting: pools, plans and caches fill
	countOps    = 500 // operations counted per path
)

// TestExactCounts drives each hot path countOps times after a warm-up,
// over an in-process server on loopback for the wire paths, and compares
// what it counted with exactCounts, at GOMAXPROCS 1 and at 2: the train
// row runs Fit's per-group goroutines, and the wire rows run the client,
// the server and the poller on one P or on two. Under the race detector
// the instrumentation allocates, so only the allocation rows are skipped.
func TestExactCounts(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got := map[string]float64{}
			countWire(t, got)
			countEnroll(t, got)
			countDevice(t, got)
			countTrain(t, got)

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
		})
	}
}

// connCounts counts the calls on a set of connections: every one the
// client dials, or every one the server accepts.
type connCounts struct{ reads, writes atomic.Int64 }

// wireCounts is both ends of a wire path.
type wireCounts struct{ client, server connCounts }

// countingConn counts a read when it returns and a write when it is
// issued. The server's counts are then exact whenever its client holds a
// response: the write that sent it is counted, and the read that waits
// for the next request is not.
type countingConn struct {
	net.Conn
	c *connCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	defer c.c.reads.Add(1)
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

// countingListener hands the server counted connections.
type countingListener struct {
	net.Listener
	c *connCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.c}, nil
}

// ends names both ends of a wire path by their row prefix.
func (w *wireCounts) ends() map[string]*connCounts {
	return map[string]*connCounts{"": &w.client, "server_": &w.server}
}

// countPath runs op countWarmup times, then countOps times while counting,
// and records name/allocs and the read and write rows of every end in
// ends, keyed by row prefix. Allocation rows are rounded; the others must
// divide exactly, so a stray call shows as a fraction.
func countPath(t *testing.T, got map[string]float64, name string, ends map[string]*connCounts, op func(i int) error) {
	t.Helper()
	for i := 0; i < countWarmup; i++ {
		if err := op(i); err != nil {
			t.Fatalf("%s warm-up: %v", name, err)
		}
	}
	before := map[string][2]int64{}
	for end, c := range ends {
		before[end] = [2]int64{c.reads.Load(), c.writes.Load()}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < countOps; i++ {
		if err := op(i); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	runtime.ReadMemStats(&m1)
	got[name+"/allocs"] = math.Round(float64(m1.Mallocs-m0.Mallocs) / countOps)
	for end, c := range ends {
		got[name+"/"+end+"reads"] = float64(c.reads.Load()-before[end][0]) / countOps
		got[name+"/"+end+"writes"] = float64(c.writes.Load()-before[end][1]) / countOps
	}
}

// countWire counts the three ways a window crosses the wire against one
// trained server: a five-user population, user-00 and user-01 enrolled
// and trained with the paper's combined, context-dispatched mode. Single
// windows alternate between the two users, as the benchmark's
// single-window plan moves to another user on every request; a batch and
// a stream are one user's.
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
	st, err := store.Open(t.TempDir(), store.Options{SnapshotEvery: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	key := []byte("exact-counts-key")
	srv, err := transport.NewServer(transport.ServerConfig{Key: key, Detector: det, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	var wire wireCounts
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.StartListener(countingListener{ln, &wire.server})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	users := []string{"user-00", "user-01"}
	own := make([][]features.WindowSample, len(users))
	for i, u := range users {
		own[i] = byUser[u]
		delete(byUser, u)
	}
	if err := srv.SeedPopulation(byUser); err != nil {
		t.Fatal(err)
	}

	client, err := transport.NewClient(transport.ClientConfig{Addr: addr.String(), Key: key, Dial: wire.client.dial})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	for i, u := range users {
		if _, err := client.Enroll(u, own[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Train(u, transport.TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: 3}); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := client.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sess.Close() })

	countPath(t, got, "single", wire.ends(), func(i int) error {
		u := i % len(users)
		_, err := sess.Authenticate(users[u], own[u][i/len(users)%len(own[u])])
		return err
	})
	user, samples := users[0], own[0]
	burst := make([]features.WindowSample, 16)
	for i := range burst {
		burst[i] = samples[i%len(samples)]
	}
	countPath(t, got, "batch16", wire.ends(), func(int) error {
		_, err := sess.AuthenticateBatch(user, burst)
		return err
	})
	stream, err := sess.StartStream(user)
	if err != nil {
		t.Fatal(err)
	}
	countPath(t, got, "stream", wire.ends(), func(i int) error {
		_, err := stream.Authenticate(samples[i%len(samples)])
		return err
	})
	countPath(t, got, "stream8", wire.ends(), func(i int) error {
		for k := 0; k < 8; k++ {
			if err := stream.Push(samples[(i+k)%len(samples)]); err != nil {
				return err
			}
		}
		for k := 0; k < 8; k++ {
			if _, err := stream.Recv(); err != nil {
				return err
			}
		}
		return nil
	})
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	countPath(t, got, "enroll8", wire.ends(), func(int) error {
		_, err := client.ReplaceEnrollment(user, samples[:8])
		return err
	})
	// A second version of user-01's model: fetching versions 1 and 2 in
	// turn misses the client's model cache every time.
	if _, err := client.Train(users[1], transport.TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	countPath(t, got, "fetch", nil, func(i int) error {
		_, _, err := client.FetchModel(users[1], 1+i%2)
		return err
	})
	countRepl(t, got, st, key, client, user, samples[:8])
}

// countRepl counts the enroll8 path again once the server's store has a
// replication leader and an in-process follower, each operation lasting
// until the follower applied the record and the leader read its ack. The
// follower dials the leader itself, so its ack writes are counted as the
// leader end's reads of them.
func countRepl(t *testing.T, got map[string]float64, st *store.Store, key []byte, client *transport.Client, user string, samples []features.WindowSample) {
	leader, err := replication.NewLeader(replication.LeaderConfig{Store: st, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	var leaderEnd connCounts
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := leader.ServeListener(countingListener{ln, &leaderEnd})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = leader.Close() })
	fst, err := store.Open(t.TempDir(), store.Options{SnapshotEvery: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fst.Close() })
	applied := make(chan struct{}, 1)
	follower, err := replication.StartFollower(replication.FollowerConfig{
		Store: fst, Key: key, LeaderAddr: addr.String(),
		OnApply: func(store.ReplicatedOp) {
			select {
			case applied <- struct{}{}:
			default: // the catch-up before counting
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = follower.Close() })
	for deadline := time.Now().Add(10 * time.Second); !slices.Equal(fst.ShardLastSeqs(), st.ShardLastSeqs()); {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %v, leader at %v", fst.ShardLastSeqs(), st.ShardLastSeqs())
		}
		time.Sleep(time.Millisecond)
	}
	for reads := leaderEnd.reads.Load(); ; reads = leaderEnd.reads.Load() {
		time.Sleep(10 * time.Millisecond) // the catch-up's last acks
		if leaderEnd.reads.Load() == reads {
			break
		}
	}
	select {
	case <-applied:
	default:
	}
	countPath(t, got, "repl8", map[string]*connCounts{"leader_": &leaderEnd}, func(int) error {
		acks := leaderEnd.reads.Load()
		if _, err := client.ReplaceEnrollment(user, samples); err != nil {
			return err
		}
		<-applied
		for leaderEnd.reads.Load() == acks {
			time.Sleep(20 * time.Microsecond) // parked, so the poller runs at -cpu 1
		}
		return nil
	})
}

// countTrain counts one core.Train in the paper's combined,
// context-dispatched mode: 8 of one user's windows, 4 per coarse context,
// against the 504 of six other users.
func countTrain(t *testing.T, got map[string]float64) {
	pop, err := sensing.NewPopulation(7, 777)
	if err != nil {
		t.Fatal(err)
	}
	var legit, impostor []features.WindowSample
	for i, u := range pop.Users {
		samples, err := features.Collect(u, features.CollectOptions{
			WindowSeconds: 6, SessionSeconds: 252, Sessions: 1, Seed: int64(20 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			impostor = append(impostor, samples...)
			continue
		}
		byCtx := features.SplitByCoarseContext(samples)
		for _, ctx := range []sensing.CoarseContext{sensing.CoarseStationary, sensing.CoarseMoving} {
			legit = append(legit, byCtx[ctx][:4]...)
		}
	}
	if len(impostor) != 504 {
		t.Fatalf("population has %d windows, want 504", len(impostor))
	}
	cfg := core.TrainConfig{Mode: core.Mode{Combined: true, UseContext: true}}
	countPath(t, got, "train", nil, func(i int) error {
		cfg.Seed = int64(i)
		_, err := core.Train(legit, impostor, cfg)
		return err
	})
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
// Authenticate. The dsp engine's counters give its transforms per op and
// the Bluestein plans built from the streams on, warm-up included.
func countDevice(t *testing.T, got map[string]float64) {
	auth, _ := buildBenchAuthenticator(t)
	calls0, plans0 := dsp.Counts()
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
	calls1, plans1 := dsp.Counts()
	got["device/transforms"] = float64(calls1-calls0) / (countWarmup + countOps)
	got["device/bluestein_plans"] = float64(plans1 - plans0)
}
