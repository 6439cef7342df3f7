package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"smarteryou/internal/binio"
	"smarteryou/internal/core"
	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
)

// writeCounter counts the Writes on every connection its dial opens.
type writeCounter struct{ writes atomic.Int64 }

type countedConn struct {
	net.Conn
	w *writeCounter
}

func (c countedConn) Write(p []byte) (int, error) {
	c.w.writes.Add(1)
	return c.Conn.Write(p)
}

func (w *writeCounter) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return countedConn{conn, w}, nil
}

// openCountedStream opens a stream for userID on a session whose writes
// w counts.
func openCountedStream(t *testing.T, addr, userID string, w *writeCounter) (*Session, *Stream) {
	t.Helper()
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey, Dial: w.dial})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	sess, err := client.NewSession()
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	t.Cleanup(func() { _ = sess.Close() })
	stream, err := sess.StartStream(userID)
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	return sess, stream
}

// TestStreamErrorMidBurstArrivesInOrder pushes a burst whose fourth window
// cannot be scored: the served bundle has no model for its context. The
// server holds the first three decisions unsent while it reads on, so
// they must still reach the client ahead of the error frame, and the
// error must poison the session.
func TestStreamErrorMidBurstArrivesInOrder(t *testing.T) {
	_, st, addr, det, own := startStoreServer(t, ServerConfig{})
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()
	if _, err := client.Enroll("user-00", own); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if _, err := client.Train("user-00", TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: 3}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	anon := anonymize("user-00")
	bundle, _, err := st.LatestModel(anon)
	if err != nil {
		t.Fatalf("LatestModel: %v", err)
	}
	delete(bundle.Models, sensing.CoarseMoving.String())
	if _, err := st.PublishModel(anon, bundle); err != nil {
		t.Fatalf("PublishModel: %v", err)
	}
	auth, err := core.NewAuthenticator(det, bundle)
	if err != nil {
		t.Fatalf("NewAuthenticator: %v", err)
	}
	var good []features.WindowSample
	var want []AuthDecision
	var bad *features.WindowSample
	for i := range own {
		d, err := auth.Authenticate(own[i])
		switch {
		case err == nil && len(good) < 3:
			good = append(good, own[i])
			want = append(want, AuthDecision(decisionResponse(d)))
		case errors.Is(err, core.ErrNoModel) && bad == nil:
			bad = &own[i]
		}
	}
	if len(good) < 3 || bad == nil {
		t.Fatalf("fixture has %d scorable windows and unscorable %v, want 3 and one", len(good), bad != nil)
	}

	sess, stream := openCountedStream(t, addr, "user-00", &writeCounter{})
	for _, w := range append(good, *bad, good[0]) {
		if err := stream.Push(w); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	for i := range good {
		d, err := stream.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v, want its decision ahead of the error", i, err)
		}
		if d != want[i] {
			t.Errorf("Recv %d = %+v, want %+v", i, d, want[i])
		}
	}
	var remote *RemoteError
	if _, err := stream.Recv(); !errors.As(err, &remote) {
		t.Fatalf("Recv of the unscorable window: %v, want a RemoteError", err)
	}
	if _, err := stream.Recv(); !errors.As(err, &remote) {
		t.Errorf("Recv after the error: %v, want the same RemoteError", err)
	}
	if err := stream.Close(); err != nil {
		t.Errorf("Close of a failed stream: %v, want nil", err)
	}
	if _, err := sess.Authenticate("user-00", good[0]); err == nil {
		t.Errorf("session still serves requests after its stream failed")
	}
}

// TestStreamPushThenCloseWithoutRecv pins Close behind unsent windows:
// the windows and the close frame leave in one write, the server's
// acknowledgement comes behind all five decisions, and the session is
// back in request mode.
func TestStreamPushThenCloseWithoutRecv(t *testing.T) {
	addr, userID, samples := startTrainedServer(t)
	var w writeCounter
	sess, stream := openCountedStream(t, addr, userID, &w)
	before := w.writes.Load()
	for i := 0; i < 5; i++ {
		if err := stream.Push(samples[i]); err != nil {
			t.Fatalf("Push %d: %v", i, err)
		}
	}
	if n := w.writes.Load() - before; n != 0 {
		t.Errorf("5 pushes wrote %d times, want 0", n)
	}
	if err := stream.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := w.writes.Load() - before; n != 1 {
		t.Errorf("5 pushes and Close wrote %d times, want 1", n)
	}
	if stream.pending != 0 {
		t.Errorf("Close found the acknowledgement with %d decisions not yet drained", stream.pending)
	}
	if _, err := sess.Authenticate(userID, samples[0]); err != nil {
		t.Fatalf("Authenticate after Close: %v", err)
	}
}

// TestStreamFlushesPastThreshold pushes more than streamFlushBytes of
// windows without a Recv: they must start leaving before the first Recv,
// and every decision must still arrive, in push order.
func TestStreamFlushesPastThreshold(t *testing.T) {
	addr, userID, samples := startTrainedServer(t)
	var pushed []features.WindowSample
	for size := 0; size <= streamFlushBytes; {
		w := samples[len(pushed)%len(samples)]
		pushed = append(pushed, w)
		size += 4 + streamFrameOverhead + features.EncodedSampleSize(w)
	}
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()
	want, err := client.AuthenticateBatch(userID, pushed)
	if err != nil {
		t.Fatalf("AuthenticateBatch: %v", err)
	}

	var w writeCounter
	_, stream := openCountedStream(t, addr, userID, &w)
	before := w.writes.Load()
	for i, sample := range pushed {
		if err := stream.Push(sample); err != nil {
			t.Fatalf("Push %d: %v", i, err)
		}
	}
	if w.writes.Load() == before {
		t.Errorf("%d windows pushed past %d bytes, nothing written", len(pushed), streamFlushBytes)
	}
	for i := range pushed {
		d, err := stream.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if d != want[i] {
			t.Errorf("Recv %d = %+v, want %+v", i, d, want[i])
		}
	}
	if err := stream.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestFetchModelSendsTheStoredBlob pins the fetch-model answer for each
// bundle shape: its payload carries the registry's blob byte for byte,
// re-encoding the decoded bundle gives the same bytes, and the client
// decodes it into the bundle Train returned.
func TestFetchModelSendsTheStoredBlob(t *testing.T) {
	_, st, addr, _, own := startStoreServer(t, ServerConfig{})
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()
	if _, err := client.Enroll("user-00", own); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	for _, mode := range []core.Mode{
		{Combined: true, UseContext: true},
		{UseContext: true},
		{Combined: true},
	} {
		trained, err := client.Train("user-00", TrainParams{Mode: mode, Seed: 3})
		if err != nil {
			t.Fatalf("Train %+v: %v", mode, err)
		}
		blob, hash, version, err := st.ModelBlobAt(anonymize("user-00"), 0)
		if err != nil {
			t.Fatalf("ModelBlobAt: %v", err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		req, err := Seal(testKey, TypeFetchModel, fetchModelRequest{UserID: "user-00"})
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		if err := WriteFrame(conn, req); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		resp, err := ReadFrame(conn)
		if err != nil || resp.Type != TypeOK {
			t.Fatalf("fetch-model answer: %+v, %v", resp.Type, err)
		}
		want := binio.AppendUvarint([]byte{binPayloadMarker}, uint64(version))
		want = binio.AppendString(want, hash.Hex())
		want = binio.AppendBytes(append(want, 0), blob)
		if !bytes.Equal(resp.Payload, want) {
			t.Errorf("%+v: fetch-model payload is not the stored blob", mode)
		}
		fetched, _, err := client.FetchModel("user-00", 0)
		if err != nil {
			t.Fatalf("FetchModel: %v", err)
		}
		if !reflect.DeepEqual(fetched, trained) {
			t.Errorf("%+v: fetched bundle differs from the trained one", mode)
		}
		if again, err := json.Marshal(fetched); err != nil || !bytes.Equal(again, blob) {
			t.Errorf("%+v: re-encoding the fetched bundle changes its bytes (%v)", mode, err)
		}
	}
}
