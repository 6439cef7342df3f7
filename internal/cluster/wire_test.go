package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"smarteryou/internal/replication"
	"smarteryou/internal/store"
	"smarteryou/internal/wire"
)

// replRecordType is the replication channel's record type byte.
const replRecordType = 0x72

// teeListener relays one follower connection to a replication leader
// and keeps a copy of everything the leader sent.
type teeListener struct {
	ln net.Listener
	mu sync.Mutex
	rx bytes.Buffer
	wg sync.WaitGroup
}

func (l *teeListener) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rx.Write(p)
}

// received returns a copy of what the leader has sent so far.
func (l *teeListener) received() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.rx.Bytes()...)
}

func startTee(t *testing.T, leaderAddr string) *teeListener {
	t.Helper()
	l := &teeListener{ln: listen(t)}
	var conns []net.Conn
	var mu sync.Mutex
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		down, err := l.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", leaderAddr)
		if err != nil {
			_ = down.Close()
			return
		}
		mu.Lock()
		conns = append(conns, down, up)
		mu.Unlock()
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			_, _ = io.Copy(up, down)
		}()
		_, _ = io.Copy(down, io.TeeReader(up, l))
	}()
	t.Cleanup(func() {
		_ = l.ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		l.wg.Wait()
	})
	return l
}

// closedWithoutReply reads conn until its peer closes it and fails the
// test if the peer sent anything first or never closed it.
func closedWithoutReply(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := io.Copy(io.Discard, conn) // a reset is as closed as an EOF
	if n != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: peer sent %d bytes and then %v, want a close and nothing else", what, n, err)
	}
}

// TestChannelsRefuseEachOthersFrames pins domain separation under the
// one key a deployment shares: a replication record frame, captured off
// a live session, is refused by the client server and by the control
// listener, and a control seal frame is refused by the replication
// leader. Each closes the connection without a reply and changes
// nothing.
func TestChannelsRefuseEachOthersFrames(t *testing.T) {
	cs := startServedCluster(t, 1, 1, store.Options{NoSync: true}, nil)[0]

	tee := startTee(t, cs.replAddr)
	followerStore := openStore(t, t.TempDir(), store.Options{NoSync: true, Shards: 1})
	follower, err := replication.StartFollower(replication.FollowerConfig{
		Store: followerStore, Key: testKey, LeaderAddr: tee.ln.Addr().String(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	t.Cleanup(func() { _ = follower.Close(); _ = followerStore.Close() })
	if err := cs.st.Enroll("alice", fakeSamples("alice", 2, 0), false); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if err := awaitCursors(cs.st.ShardLastSeqs(), []*clusterServer{{st: followerStore}}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	var record []byte
	for r := bytes.NewReader(tee.received()); record == nil; {
		body, err := wire.ReadBody(r, nil, 1<<30)
		if err != nil {
			t.Fatalf("no record frame in the captured session: %v", err)
		}
		if tb, _, _, err := wire.Parse(body); err == nil && tb == replRecordType {
			record = append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
		}
	}
	before := cs.st.Population()

	send := func(addr, what string, frame []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial %s: %v", what, err)
		}
		defer conn.Close()
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("write to %s: %v", what, err)
		}
		closedWithoutReply(t, conn, what)
	}
	send(cs.addr, "client server", record)
	send(cs.node.self.CtrlAddr, "control listener", record)

	var seal bytes.Buffer
	if err := writeCtrl(newCtrlConn(&seal, testKey), encodeSealRequest(sealRequest{shard: 0})); err != nil {
		t.Fatalf("writeCtrl: %v", err)
	}
	send(cs.replAddr, "replication leader", seal.Bytes())

	if got := cs.node.Map().Version; got != 1 {
		t.Errorf("map version %d after refused frames, want 1", got)
	}
	// An unsealed shard still takes writes, and nothing else moved.
	after := cs.st.Population()
	if len(after) != len(before) {
		t.Errorf("population changed from %d to %d users", len(before), len(after))
	}
	if err := cs.st.Enroll("bob", fakeSamples("bob", 1, 0), false); err != nil {
		t.Errorf("shard 0 refuses writes after a control frame reached the replication leader: %v", err)
	}
}
