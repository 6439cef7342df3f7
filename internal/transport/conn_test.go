package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/retrain"
	"smarteryou/internal/store"
	"smarteryou/internal/wire"
)

// sampleWindow is a window with every field set, so an encoder that
// drops or reorders one shows.
func sampleWindow(user string, day float64) features.WindowSample {
	var w features.WindowSample
	w.UserID, w.Context, w.Day = user, 3, day
	w.Phone.Acc.Mean, w.Phone.Gyr.Var, w.Watch.Acc.Peak2F, w.Watch.Gyr.Ran = 1.25, -2.5, 7, 0.125
	return w
}

// TestInPlaceFrameMatchesWriteFrame pins the one frame encoder byte for
// byte: for every type byte, a connection's frame — built in place behind
// the frames already pending, the MAC computed over the payload already
// in the buffer — equals the exported WriteFrame(Seal(…)).
func TestInPlaceFrameMatchesWriteFrame(t *testing.T) {
	windows := []features.WindowSample{sampleWindow("alice", 1), sampleWindow("alice", 2)}
	decision := authResponse{Context: "moving", ContextConfidence: 0.75, Score: -1.5}
	payloads := map[string]any{
		TypeEnroll:        enrollRequest{UserID: "alice", Replace: true, Samples: windows},
		TypeFetchDetector: nil,
		TypeTrain:         trainRequest{UserID: "alice", TrainParams: TrainParams{Mode: core.Mode{Combined: true}, Seed: 3}},
		TypeFetchModel:    fetchModelRequest{UserID: "alice", Version: 2, IfHash: "ab12"},
		TypeStats:         nil,
		TypeAuthenticate:  authRequest{UserID: "alice", Sample: windows[0]},
		TypeRetrain:       retrainRequest{UserID: "alice"},
		TypeAuthBatch:     batchAuthRequest{UserID: "alice", Samples: windows},
		TypeStreamOpen:    streamOpenRequest{UserID: "alice"},
		TypeOK:            decision,
		TypeBusy:          busyPayload{Message: "training queue is full", RetryAfterSeconds: 1},
		TypeRedirect:      redirectPayload{Message: "owned elsewhere", Leader: "127.0.0.1:7611"},
		TypeError:         errorPayload{Message: "no model"},
		TypeShardMap:      nil,
		TypeDriftState:    driftStateRequest{UserID: "alice", Limit: 5},
	}
	exported := func(msgType string, payload any) []byte {
		t.Helper()
		env, err := Seal(testKey, msgType, payload)
		if err != nil {
			t.Fatalf("Seal %s: %v", msgType, err)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, env); err != nil {
			t.Fatalf("WriteFrame %s: %v", msgType, err)
		}
		return buf.Bytes()
	}
	c := newWireConn(nil, testKey)
	for msgType := range typeToByte {
		payload, ok := payloads[msgType]
		if !ok {
			t.Errorf("%s: no representative payload in this test", msgType)
			continue
		}
		start := len(c.out)
		if err := c.sealPayload(msgType, payload); err != nil {
			t.Fatalf("sealPayload %s: %v", msgType, err)
		}
		if got, want := c.out[start:], exported(msgType, payload); !bytes.Equal(got, want) {
			t.Errorf("%s: in-place frame\n%x\nWriteFrame(Seal(…))\n%x", msgType, got, want)
		}
	}

}

// TestOversizedFrameAllocatesNothing pins that MaxFrameBytes is checked
// before anything is allocated: a 4 GiB length header costs no allocation
// when a buffer is passed for reuse.
func TestOversizedFrameAllocatesNothing(t *testing.T) {
	header := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	r := bytes.NewReader(header)
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(header)
		if _, err := wire.ReadBody(r, buf, MaxFrameBytes); !errors.Is(err, wire.ErrFrameTooLarge) {
			t.Fatalf("oversized header: %v, want ErrFrameTooLarge", err)
		}
	})
	if allocs != 0 {
		t.Errorf("oversized header allocated %v times per read, want 0", allocs)
	}
}

// TestBatchScratchBoundedOnIdleConn pins that a connection keeps its
// batch scratch only within the frame layer's keep budget: after a batch
// whose decisions outgrow wire.KeepBytes, the idle connection holds no
// decision slice, while a 16-window batch's scratch is kept for reuse.
func TestBatchScratchBoundedOnIdleConn(t *testing.T) {
	srv, _, addr, _, own := startStoreServer(t, ServerConfig{})
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()
	if _, err := client.Enroll("user-00", own); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if _, err := client.Train("user-00", TrainParams{Mode: core.Mode{Combined: true}, Seed: 3}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	batch := func(n int) Envelope {
		t.Helper()
		samples := make([]features.WindowSample, n)
		for i := range samples {
			samples[i] = own[i%len(own)]
		}
		env, err := Seal(testKey, TypeAuthBatch, batchAuthRequest{UserID: "user-00", Samples: samples})
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		return env
	}
	bytesOf := func(c *wireConn) (decisions, responses uintptr) {
		return uintptr(cap(c.decisions)) * unsafe.Sizeof(core.Decision{}),
			uintptr(cap(c.batchResp.Decisions)) * unsafe.Sizeof(authResponse{})
	}
	big := 2 * wire.KeepBytes / int(unsafe.Sizeof(authResponse{}))

	c := newWireConn(nil, testKey)
	srv.respond(c, batch(big))
	body, err := wire.ReadBody(bytes.NewReader(c.out), nil, MaxFrameBytes)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	env, err := envelopeFromBody(body)
	if err != nil {
		t.Fatalf("response envelope: %v", err)
	}
	var resp batchAuthResponse
	if err := env.Open(testKey, &resp); err != nil || len(resp.Decisions) != big {
		t.Fatalf("response: %s with %d decisions, %v; want ok with %d", env.Type, len(resp.Decisions), err, big)
	}
	if d, r := bytesOf(c); d > wire.KeepBytes || r > wire.KeepBytes {
		t.Errorf("after a %d-window batch the idle connection keeps %d B of decisions and %d B of responses, budget %d B", big, d, r, wire.KeepBytes)
	}

	c.out = c.out[:0]
	srv.respond(c, batch(16))
	if d, r := bytesOf(c); d == 0 || r == 0 {
		t.Errorf("a 16-window batch's scratch was dropped (%d B, %d B); it is within budget and reused", d, r)
	}
}

// startStoreServer starts a server over a fresh store, seeded with every
// fixture user but user-00, whose windows it returns.
func startStoreServer(t *testing.T, cfg ServerConfig) (srv *Server, st *store.Store, addr string, det *ctxdetect.Detector, own []features.WindowSample) {
	t.Helper()
	det, byUser := buildFixture(t)
	st = openTestStore(t)
	cfg.Key, cfg.Detector, cfg.Store = testKey, det, st
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	a, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	own = byUser["user-00"]
	delete(byUser, "user-00")
	if err := srv.SeedPopulation(byUser); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}
	return srv, st, a.String(), det, own
}

// TestReusedBuffersNeverAliasDecodedValues sends frames of growing, then
// shrinking size down one connection — a 64-window enroll, a train, an
// authenticate, another user's 16-window enroll, a fetch-model, another
// authenticate — and checks that nothing either end decoded still points
// into a buffer the next frame overwrote.
func TestReusedBuffersNeverAliasDecodedValues(t *testing.T) {
	_, st, addr, _, own := startStoreServer(t, ServerConfig{})
	var dials atomic.Int64
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey, Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
		dials.Add(1)
		return net.DialTimeout(network, addr, timeout)
	}})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()
	spread := func(user string, n int) []features.WindowSample {
		out := make([]features.WindowSample, n)
		for i := range out {
			out[i] = own[i%len(own)]
			out[i].UserID, out[i].Day = user, float64(i)
		}
		return out
	}
	alice, bob := spread("alice", 64), spread("bob", 16)

	if _, err := client.Enroll("alice", alice); err != nil {
		t.Fatalf("Enroll alice: %v", err)
	}
	if _, err := client.Train("alice", TrainParams{Mode: core.Mode{Combined: true}, Seed: 3}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	d, err := client.Authenticate("alice", alice[0])
	if err != nil {
		t.Fatalf("Authenticate: %v", err)
	}
	decision := d
	decision.Context = strings.Clone(d.Context) // a copy no buffer can share
	if _, err := client.Enroll("bob", bob); err != nil {
		t.Fatalf("Enroll bob: %v", err)
	}
	if d != decision {
		t.Errorf("decision changed under the next request: %+v, was %+v", d, decision)
	}
	anon := anonymize("alice")
	if got, want := st.UserWindows(anon), anonymizeSamples(anon, alice); !reflect.DeepEqual(got, want) {
		t.Errorf("alice's stored windows differ from what was sent after later frames reused the buffers")
	}
	bundle, _, err := client.FetchModel("alice", 0)
	if err != nil {
		t.Fatalf("FetchModel: %v", err)
	}
	fetched, err := json.Marshal(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if d, err = client.Authenticate("alice", alice[1]); err != nil {
		t.Fatalf("Authenticate: %v", err)
	}
	if after, _ := json.Marshal(bundle); !bytes.Equal(after, fetched) {
		t.Errorf("fetched bundle changed under the next request")
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("the requests used %d connections, want 1", n)
	}
}

// TestStreamWindowPipelinedBehindOpen sends the stream-open handshake and
// the first window frame in one write. The window reaches the server's
// buffered reader with the handshake, before the stream loop starts, and
// must be served from there.
func TestStreamWindowPipelinedBehindOpen(t *testing.T) {
	_, _, addr, _, own := startStoreServer(t, ServerConfig{})
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, err := client.Enroll("user-00", own); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if _, err := client.Train("user-00", TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: 3}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	want, err := client.Authenticate("user-00", own[0])
	if err != nil {
		t.Fatalf("Authenticate: %v", err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	open, err := Seal(testKey, TypeStreamOpen, streamOpenRequest{UserID: "user-00"})
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	burst, err := appendEnvelope(nil, open)
	if err != nil {
		t.Fatalf("appendEnvelope: %v", err)
	}
	burst = appendStreamFrame(burst, streamKindWindow, features.AppendSampleBinary(nil, own[0]))
	if _, err := conn.Write(burst); err != nil {
		t.Fatalf("write: %v", err)
	}
	ack, err := ReadFrame(conn)
	if err != nil || ack.Type != TypeOK {
		t.Fatalf("stream-open answer: %+v, %v", ack, err)
	}
	body, err := wire.ReadBody(conn, nil, MaxFrameBytes)
	if err != nil {
		t.Fatalf("read decision frame: %v", err)
	}
	kind, payload, err := parseStreamFrame(body)
	if err != nil || kind != streamKindDecision {
		t.Fatalf("decision frame: kind %d, %v", kind, err)
	}
	var got authResponse
	if err := got.decodeBinary(payload, nil); err != nil {
		t.Fatalf("decode decision: %v", err)
	}
	if AuthDecision(got) != want {
		t.Errorf("pipelined window: %+v, request path %+v", got, want)
	}
}

// TestPoolKeepsOnlyDrainedConns pins that a pooled connection goes back
// to the pool only when its read buffer is empty: bytes that arrived past
// the response mean the connection is out of step with its server.
func TestPoolKeepsOnlyDrainedConns(t *testing.T) {
	// Each dial is one end of a net.Pipe, whose reader receives a Write
	// whole when its buffer has room: the trailing bytes are in the
	// client's reader when the response is, on every run.
	var trailing atomic.Bool
	serve := func(conn net.Conn) {
		defer conn.Close()
		for {
			if _, err := wire.ReadBody(conn, nil, MaxFrameBytes); err != nil {
				return
			}
			env, err := Seal(testKey, TypeOK, statsResponse{Users: 1})
			if err != nil {
				return
			}
			frame, err := appendEnvelope(nil, env)
			if err != nil {
				return
			}
			if trailing.Load() {
				frame = append(frame, 0, 0, 0, 9) // the start of a frame nobody asked for
			}
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}
	dial := func(string, string, time.Duration) (net.Conn, error) {
		client, server := net.Pipe()
		go serve(server)
		return client, nil
	}
	const addr = "pipe"
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey, Timeout: 2 * time.Second, Dial: dial})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()
	idle := func() int {
		client.pool.mu.Lock()
		defer client.pool.mu.Unlock()
		return len(client.pool.idle[addr])
	}

	trailing.Store(true)
	if users, _, err := client.Stats(); err != nil || users != 1 {
		t.Fatalf("Stats with trailing bytes: %d users, %v", users, err)
	}
	if n := idle(); n != 0 {
		t.Errorf("a connection with unread bytes went back to the pool (%d idle)", n)
	}
	trailing.Store(false)
	if _, _, err := client.Stats(); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if n := idle(); n != 1 {
		t.Errorf("a drained connection did not go back to the pool (%d idle)", n)
	}
}

// TestReloadNeverInstallsOlderBundle interleaves two reloads of one user
// after two publishes the server did not make: the connection that read
// the older bundle finishes last, and must not overwrite the newer cache
// entry — which would cost every later request a reload, and a drift
// reset each time.
func TestReloadNeverInstallsOlderBundle(t *testing.T) {
	srv, st, addr, _, own := startStoreServer(t, ServerConfig{})
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, err := client.Enroll("user-00", own); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if _, err := client.Train("user-00", TrainParams{Mode: core.Mode{Combined: true}, Seed: 3}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	sessions := make([]*Session, 2)
	for i := range sessions {
		if sessions[i], err = client.NewSession(); err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		defer sessions[i].Close()
	}
	anon := anonymize("user-00")

	loaded, release := make(chan struct{}), make(chan struct{})
	var reloads atomic.Int64
	reloadTestHook = func(string) {
		if reloads.Add(1) == 1 {
			close(loaded)
			<-release
		}
	}
	defer func() { reloadTestHook = nil }()

	publishWithThreshold(t, st, anon, 1e9) // v2 rejects everything
	older := make(chan error, 1)
	go func() {
		_, err := sessions[0].Authenticate("user-00", own[0])
		older <- err
	}()
	<-loaded                                // the first connection holds v2, not yet installed
	publishWithThreshold(t, st, anon, -1e9) // v3 accepts everything
	if d, err := sessions[1].Authenticate("user-00", own[0]); err != nil || !d.Accepted {
		t.Fatalf("authenticate under v3: %+v, %v", d, err)
	}
	close(release)
	if err := <-older; err != nil {
		t.Fatalf("authenticate under v2: %v", err)
	}

	_, latest, err := st.LatestModelHash(anon)
	if err != nil {
		t.Fatalf("LatestModelHash: %v", err)
	}
	if e := srv.cached(anon); e == nil || e.hash != latest {
		t.Errorf("cache holds an older bundle than the registry's latest")
	}
	for range 3 {
		if d, err := sessions[0].Authenticate("user-00", own[1]); err != nil || !d.Accepted {
			t.Fatalf("authenticate after both reloads: %+v, %v", d, err)
		}
	}
	if n := reloads.Load(); n != 2 {
		t.Errorf("%d reloads for two publishes, want 2", n)
	}
}

// TestSharedAuthenticatorHammer authenticates one user from 8 sessions,
// all sharing the user's cached authenticator, while trains and
// publishes the server did not make replace the model under them. Every
// decision must be one that some published model makes on that window:
// none may come from a bundle that was never published. Run with -race
// (make race-pool).
func TestSharedAuthenticatorHammer(t *testing.T) {
	_, st, addr, det, own := startStoreServer(t, ServerConfig{Retrain: &retrain.Config{Threshold: -1}})
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, err := client.Enroll("user-00", own); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	params := func(seed int64) TrainParams {
		return TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: seed}
	}
	first, err := client.Train("user-00", params(1))
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	anon := anonymize("user-00")
	published := []*core.ModelBundle{first}

	type seen struct {
		window int
		d      AuthDecision
	}
	const sessions, perSession = 8, 40
	decisions := make([][]seen, sessions)
	var wg sync.WaitGroup
	for g := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := client.NewSession()
			if err != nil {
				t.Errorf("NewSession: %v", err)
				return
			}
			defer sess.Close()
			for i := range perSession {
				k := (g + i) % len(own)
				d, err := sess.Authenticate("user-00", own[k])
				if err != nil {
					t.Errorf("Authenticate: %v", err)
					return
				}
				decisions[g] = append(decisions[g], seen{k, d})
			}
		}()
	}
	for i := int64(2); i <= 7; i++ {
		if i%2 == 0 {
			b, err := client.Train("user-00", params(i))
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			published = append(published, b)
			continue
		}
		v := publishWithThreshold(t, st, anon, float64(i-4)/4)
		blob, _, _, err := st.ModelBlobAt(anon, v)
		if err != nil {
			t.Fatalf("ModelBlobAt: %v", err)
		}
		b, err := core.UnmarshalModelBundle(blob)
		if err != nil {
			t.Fatalf("UnmarshalModelBundle: %v", err)
		}
		published = append(published, b)
	}
	wg.Wait()

	possible := make([]map[AuthDecision]bool, len(own))
	for k := range possible {
		possible[k] = map[AuthDecision]bool{}
	}
	for _, b := range published {
		auth, err := core.NewAuthenticator(det, b)
		if err != nil {
			t.Fatalf("NewAuthenticator: %v", err)
		}
		for k, w := range own {
			d, err := auth.Authenticate(w)
			if err != nil {
				t.Fatalf("local Authenticate: %v", err)
			}
			possible[k][AuthDecision(decisionResponse(d))] = true
		}
	}
	for g, ds := range decisions {
		for _, s := range ds {
			if !possible[s.window][s.d] {
				t.Fatalf("session %d, window %d: decision %+v comes from no published model", g, s.window, s.d)
			}
		}
	}
}
