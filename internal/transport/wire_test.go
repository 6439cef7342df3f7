package transport

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"smarteryou/internal/core"
	"smarteryou/internal/features"
	"smarteryou/internal/wire"
)

// startTrainedServer builds the usual fixture, enrolls user-00 and trains
// a model for them, returning the server address and the user's windows.
func startTrainedServer(t *testing.T) (addr, userID string, samples []features.WindowSample) {
	t.Helper()
	det, byUser := buildFixture(t)
	srv, addr := startServer(t, det)
	seed := make(map[string][]features.WindowSample)
	for id, s := range byUser {
		if id != "user-00" {
			seed[id] = s
		}
	}
	if err := srv.SeedPopulation(seed); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, err := client.Enroll("user-00", byUser["user-00"]); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if _, err := client.Train("user-00", TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: 3}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	return addr, "user-00", byUser["user-00"]
}

// TestBatchMatchesSingle pins batch semantics: one batch round trip must
// produce exactly the decisions of N single round trips, in window order.
func TestBatchMatchesSingle(t *testing.T) {
	addr, userID, samples := startTrainedServer(t)
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	batch, err := client.AuthenticateBatch(userID, samples)
	if err != nil {
		t.Fatalf("AuthenticateBatch: %v", err)
	}
	if len(batch) != len(samples) {
		t.Fatalf("batch returned %d decisions for %d windows", len(batch), len(samples))
	}
	for i, sample := range samples {
		single, err := client.Authenticate(userID, sample)
		if err != nil {
			t.Fatalf("Authenticate window %d: %v", i, err)
		}
		if batch[i] != single {
			t.Errorf("window %d: batch %+v != single %+v", i, batch[i], single)
		}
	}
	var remote *RemoteError
	if _, err := client.AuthenticateBatch("ghost", samples[:1]); !errors.As(err, &remote) {
		t.Errorf("batch for unknown user: err = %v, want RemoteError", err)
	}

	// The server counted every request it read — the fixture's enroll and
	// train, the batch, the singles, the refused batch and this stats call
	// — and only the served batch's windows.
	stats, err := client.FullStats()
	if err != nil {
		t.Fatalf("FullStats: %v", err)
	}
	if want := uint64(2 + 1 + len(samples) + 1 + 1); stats.Wire == nil || stats.Wire.V2Requests != want {
		t.Errorf("wire stats = %+v, want %d requests", stats.Wire, want)
	}
	if stats.Wire.BatchWindows != uint64(len(samples)) {
		t.Errorf("BatchWindows = %d, want %d", stats.Wire.BatchWindows, len(samples))
	}
}

// TestServerRejectsJSONEnvelope pins that the JSON envelope is gone from
// the wire, not merely unused: a correctly length-prefixed frame whose
// body starts with '{' closes the connection without being dispatched or
// counted, and the server keeps serving other connections.
func TestServerRejectsJSONEnvelope(t *testing.T) {
	det, _ := buildFixture(t)
	srv, addr := startServer(t, det)
	before := srv.wireV2Requests.Load()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() { _ = conn.Close() }()
	sealed, err := Seal(testKey, TypeStats, nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	body := fmt.Sprintf(`{"type":"stats","mac":%q}`, base64.StdEncoding.EncodeToString(sealed.MAC))
	if _, err := conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)); err != nil {
		t.Fatalf("write JSON frame: %v", err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("read after JSON frame = (%d, %v), want the connection closed with no response", n, err)
	}
	if got := srv.wireV2Requests.Load(); got != before {
		t.Errorf("JSON frame was counted as a request: %d -> %d", before, got)
	}

	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	stats, err := client.FullStats()
	if err != nil {
		t.Fatalf("FullStats on a new connection: %v", err)
	}
	if stats.Wire == nil || stats.Wire.V2Requests != before+1 {
		t.Errorf("wire stats = %+v, want exactly the stats request counted", stats.Wire)
	}
}

// TestStreamRoundTrip drives the streaming session end to end: open,
// authenticate windows one by one and pipelined, close, and confirm the
// connection returns to request mode with decisions identical to the
// request path.
func TestStreamRoundTrip(t *testing.T) {
	addr, userID, samples := startTrainedServer(t)
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	want, err := client.AuthenticateBatch(userID, samples)
	if err != nil {
		t.Fatalf("AuthenticateBatch: %v", err)
	}

	sess, err := client.NewSession()
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer func() { _ = sess.Close() }()
	stream, err := sess.StartStream(userID)
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}

	// While the stream is open, request-mode calls must fail fast instead
	// of corrupting the connection.
	if _, _, err := sess.Stats(); err == nil {
		t.Errorf("session request during an open stream should fail")
	}

	// One-by-one.
	for i, sample := range samples[:3] {
		d, err := stream.Authenticate(sample)
		if err != nil {
			t.Fatalf("stream Authenticate window %d: %v", i, err)
		}
		if d != want[i] {
			t.Errorf("window %d: stream %+v != request %+v", i, d, want[i])
		}
	}
	// Pipelined: push the rest, then collect.
	rest := samples[3:]
	for i, sample := range rest {
		if err := stream.Push(sample); err != nil {
			t.Fatalf("Push window %d: %v", i, err)
		}
	}
	for i := range rest {
		d, err := stream.Recv()
		if err != nil {
			t.Fatalf("Recv window %d: %v", i, err)
		}
		if d != want[3+i] {
			t.Errorf("pipelined window %d: stream %+v != request %+v", i, d, want[3+i])
		}
	}
	if _, err := stream.Recv(); err == nil {
		t.Errorf("Recv with no pending windows should fail")
	}
	if err := stream.Close(); err != nil {
		t.Fatalf("stream Close: %v", err)
	}

	// The connection is back in request mode: the same session serves a
	// normal request, and a second stream can open.
	if _, _, err := sess.Stats(); err != nil {
		t.Fatalf("Stats after stream close: %v", err)
	}
	stream2, err := sess.StartStream(userID)
	if err != nil {
		t.Fatalf("second StartStream: %v", err)
	}
	if _, err := stream2.Authenticate(samples[0]); err != nil {
		t.Fatalf("second stream Authenticate: %v", err)
	}
	if err := stream2.Close(); err != nil {
		t.Fatalf("second stream Close: %v", err)
	}
}

// TestStreamCloseDrainsPending pins the close handshake with decisions
// still in flight: Close must drain them and still find the sealed OK.
func TestStreamCloseDrainsPending(t *testing.T) {
	addr, userID, samples := startTrainedServer(t)
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	sess, err := client.NewSession()
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer func() { _ = sess.Close() }()
	stream, err := sess.StartStream(userID)
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	for i, sample := range samples[:4] {
		if err := stream.Push(sample); err != nil {
			t.Fatalf("Push %d: %v", i, err)
		}
	}
	if err := stream.Close(); err != nil {
		t.Fatalf("Close with pending decisions: %v", err)
	}
	if _, _, err := sess.Stats(); err != nil {
		t.Fatalf("Stats after draining close: %v", err)
	}
}

// TestStreamOpenUnknownUser pins the refused handshake: the server
// answers with a sealed error and the connection stays usable in request
// mode.
func TestStreamOpenUnknownUser(t *testing.T) {
	addr, _, _ := startTrainedServer(t)
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	sess, err := client.NewSession()
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer func() { _ = sess.Close() }()
	var remote *RemoteError
	if _, err := sess.StartStream("ghost"); !errors.As(err, &remote) {
		t.Fatalf("StartStream for unknown user: err = %v, want RemoteError", err)
	}
	if _, _, err := sess.Stats(); err != nil {
		t.Errorf("Stats after refused stream-open: %v", err)
	}
}

// TestClientRejectsOversizedServerFrame is the symmetric MaxFrameBytes
// bound: a misbehaving server declaring a huge frame must be rejected by
// the client before it allocates, on both the request and stream paths.
func TestClientRejectsOversizedServerFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer func() { _ = conn.Close() }()
				// Consume the request frame, then declare a 4 GiB response.
				if _, err := wire.ReadBody(conn, nil, MaxFrameBytes); err != nil {
					return
				}
				var header [4]byte
				binary.BigEndian.PutUint32(header[:], 0xFFFFFFFF)
				_, _ = conn.Write(header[:])
			}(conn)
		}
	}()
	client, err := NewClient(ClientConfig{Addr: ln.Addr().String(), Key: testKey, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, err := client.Authenticate("user-00", features.WindowSample{}); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Errorf("oversized response err = %v, want ErrFrameTooLarge", err)
	}
}

// TestStreamHammerConcurrentClose is the -race hammer: many goroutines
// drive streaming sessions flat out while the server shuts down under
// them. Every goroutine must unblock with an error (or finish cleanly),
// nothing may deadlock, and the race detector must stay quiet across the
// stream loops, the drift monitor and the connection teardown.
func TestStreamHammerConcurrentClose(t *testing.T) {
	det, byUser := buildFixture(t)
	srv, err := NewServer(ServerConfig{Key: testKey, Detector: det, Store: openTestStore(t)})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addrObj, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	addr := addrObj.String()
	seed := make(map[string][]features.WindowSample)
	for id, s := range byUser {
		if id != "user-00" {
			seed[id] = s
		}
	}
	if err := srv.SeedPopulation(seed); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, err := client.Enroll("user-00", byUser["user-00"]); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if _, err := client.Train("user-00", TrainParams{Mode: core.Mode{Combined: true}, Seed: 3}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	samples := byUser["user-00"]

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := client.NewSession()
			if err != nil {
				errs <- nil // server already gone: fine
				return
			}
			defer func() { _ = sess.Close() }()
			stream, err := sess.StartStream("user-00")
			if err != nil {
				errs <- nil
				return
			}
			for i := 0; ; i++ {
				if _, err := stream.Authenticate(samples[i%len(samples)]); err != nil {
					break // server closed underneath us — expected
				}
			}
			errs <- stream.Close() // poisoned stream: must not hang
		}(w)
	}
	time.Sleep(100 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Errorf("server Close: %v", err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("stream workers did not unblock after server Close")
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("worker close: %v", err)
		}
	}
}

// TestStreamWireStats confirms the server counts streamed traffic.
func TestStreamWireStats(t *testing.T) {
	addr, userID, samples := startTrainedServer(t)
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	sess, err := client.NewSession()
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer func() { _ = sess.Close() }()
	stream, err := sess.StartStream(userID)
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	for _, sample := range samples[:5] {
		if _, err := stream.Authenticate(sample); err != nil {
			t.Fatalf("stream Authenticate: %v", err)
		}
	}
	if err := stream.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	stats, err := client.FullStats()
	if err != nil {
		t.Fatalf("FullStats: %v", err)
	}
	if stats.Wire == nil {
		t.Fatalf("no wire stats after streaming")
	}
	if stats.Wire.StreamSessions != 1 || stats.Wire.StreamWindows != 5 {
		t.Errorf("wire stats = %+v, want 1 session / 5 windows", stats.Wire)
	}
}

// TestDecodedEnrollSharesTheUserID checks that the windows of a decoded
// enroll request share the request's user id instead of each holding a
// copy.
func TestDecodedEnrollSharesTheUserID(t *testing.T) {
	windows := make([]features.WindowSample, 4)
	for i := range windows {
		windows[i] = features.WindowSample{UserID: "alice", Day: float64(i)}
	}
	b, err := enrollRequest{UserID: "alice", Replace: true, Samples: windows}.appendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var q enrollRequest
	if err := q.decodeBinary(b, nil); err != nil {
		t.Fatal(err)
	}
	if len(q.Samples) != len(windows) {
		t.Fatalf("decoded %d windows, want %d", len(q.Samples), len(windows))
	}
	for i, w := range q.Samples {
		if w.UserID != q.UserID || unsafe.StringData(w.UserID) != unsafe.StringData(q.UserID) {
			t.Errorf("window %d user id %q is a copy of the request's %q", i, w.UserID, q.UserID)
		}
	}
}

// TestTrainAndFetchRequestCodecs round-trips the binary train and
// fetch-model requests through Seal and Open, and has a server answer
// both in their JSON form too.
func TestTrainAndFetchRequestCodecs(t *testing.T) {
	train := trainRequest{UserID: "user-00", TrainParams: TrainParams{
		Mode: core.Mode{Combined: true, UseContext: true}, Rho: 0.25, MaxPerClass: -3, TargetFRR: 0.05, Seed: -1 << 62,
	}}
	fetch := fetchModelRequest{UserID: "user-00", Version: 2, IfHash: strings.Repeat("ab", 32)}
	for _, tc := range []struct {
		msgType   string
		in        any
		out, want any
	}{
		{TypeTrain, train, &trainRequest{}, &train},
		{TypeFetchModel, fetch, &fetchModelRequest{}, &fetch},
	} {
		env, err := Seal(testKey, tc.msgType, tc.in)
		if err != nil {
			t.Fatalf("Seal %s: %v", tc.msgType, err)
		}
		if env.Payload[0] != binPayloadMarker {
			t.Errorf("%s payload is not binary", tc.msgType)
		}
		if err := env.Open(testKey, tc.out); err != nil {
			t.Fatalf("Open %s: %v", tc.msgType, err)
		}
		if !reflect.DeepEqual(tc.out, tc.want) {
			t.Errorf("%s round trip: got %+v, want %+v", tc.msgType, tc.out, tc.want)
		}
	}

	srv, _, addr, _, own := startStoreServer(t, ServerConfig{})
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()
	if _, err := client.Enroll("user-00", own); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	c := newWireConn(nil, testKey)
	for _, tc := range []struct {
		msgType string
		json    map[string]any
	}{
		{TypeTrain, map[string]any{"user_id": "user-00", "mode": map[string]bool{"combined": true}, "seed": 3}},
		{TypeFetchModel, map[string]any{"user_id": "user-00", "version": 1}},
	} {
		env, err := Seal(testKey, tc.msgType, tc.json)
		if err != nil {
			t.Fatalf("Seal %s: %v", tc.msgType, err)
		}
		if env.Payload[0] != '{' {
			t.Fatalf("%s payload is not JSON", tc.msgType)
		}
		if r := srv.dispatch(c, env); r.msgType != TypeOK {
			t.Errorf("JSON %s: answered %s %+v", tc.msgType, r.msgType, r.payload)
		}
	}
}

func TestEnvelopeV2RoundTrip(t *testing.T) {
	req := authRequest{UserID: "alice"}
	req.Sample.UserID = "alice"
	req.Sample.Day = 2.5
	req.Sample.Phone.Acc.Mean = 1.25
	env, err := Seal(testKey, TypeAuthenticate, req)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	body, err := encodeEnvelopeV2(env)
	if err != nil {
		t.Fatalf("encodeEnvelopeV2: %v", err)
	}
	if body[0] != wireFormatV2 {
		t.Fatalf("format byte = %#x", body[0])
	}
	got, err := parseEnvelopeV2(body)
	if err != nil {
		t.Fatalf("parseEnvelopeV2: %v", err)
	}
	var decoded authRequest
	if err := got.Open(testKey, &decoded); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if decoded.UserID != req.UserID || decoded.Sample != req.Sample {
		t.Errorf("round trip mismatch: %+v", decoded)
	}

	// Flipping a payload byte must break the MAC.
	tampered := append([]byte(nil), body...)
	tampered[len(tampered)-1] ^= 0x01
	bad, err := parseEnvelopeV2(tampered)
	if err != nil {
		t.Fatalf("parseEnvelopeV2 tampered: %v", err)
	}
	if err := bad.Open(testKey, &decoded); !errors.Is(err, wire.ErrBadMAC) {
		t.Errorf("tampered v2 envelope err = %v, want ErrBadMAC", err)
	}
}

// TestMACPoolConsistency pins that the pooled HMAC behind Seal and Open
// produces the tag a fresh HMAC computes over type || 0x00 || payload, for
// distinct keys used interleaved.
func TestMACPoolConsistency(t *testing.T) {
	keys := [][]byte{[]byte("k1"), []byte("k2"), testKey}
	for round := 0; round < 3; round++ {
		for i, key := range keys {
			payload := errorPayload{Message: fmt.Sprintf("payload-%d-%d", round, i)}
			env, err := Seal(key, TypeError, payload)
			if err != nil {
				t.Fatalf("Seal: %v", err)
			}
			fresh := hmac.New(sha256.New, key)
			fresh.Write([]byte(TypeError + "\x00"))
			fresh.Write(env.Payload)
			if !hmac.Equal(env.MAC, fresh.Sum(nil)) {
				t.Fatalf("pooled MAC differs from a fresh one (key %d, round %d)", i, round)
			}
			if err := env.Open(key, nil); err != nil {
				t.Fatalf("Open with pooled MAC: %v", err)
			}
		}
	}
}
