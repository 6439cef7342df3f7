package replication

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smarteryou/internal/binio"
	"smarteryou/internal/store"
	"smarteryou/internal/wire"
)

// forgingProxy sits on the path between a follower and its leader. It
// relays every byte, except that it rewrites the first record frame the
// leader sends: the frame keeps its header and its shard, its WAL payload
// becomes forged, and its length is made to fit — all an on-path writer
// can do without the key.
type forgingProxy struct {
	ln       net.Listener
	leader   string
	forged   []byte
	swapped  atomic.Int64
	sessions atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func startForgingProxy(t *testing.T, leaderAddr string, forged []byte) *forgingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &forgingProxy{ln: ln, leader: leaderAddr, forged: forged}
	p.wg.Add(1)
	go p.accept()
	t.Cleanup(func() {
		_ = ln.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			_ = c.Close()
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
	return p
}

func (p *forgingProxy) accept() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.leader)
		if err != nil {
			_ = down.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, down, up)
		p.mu.Unlock()
		p.sessions.Add(1)
		p.wg.Add(2)
		go func() {
			defer p.wg.Done()
			_, _ = io.Copy(up, down)
			_ = up.Close()
		}()
		go func() {
			defer p.wg.Done()
			p.relay(down, up)
			_ = down.Close()
		}()
	}
}

// relay copies leader frames to the follower, frame by frame.
func (p *forgingProxy) relay(down io.Writer, up io.Reader) {
	for {
		body, err := wire.ReadBody(up, nil, maxFrameBytes)
		if err != nil {
			return
		}
		if len(body) > wire.HeaderBytes-4 && body[0] == wire.FormatSealed && body[1] == frameRecord && p.swapped.Load() == 0 {
			p.swapped.Add(1)
			payload := body[wire.HeaderBytes-4:]
			_, n := binary.Uvarint(payload) // the shard, kept
			keep := wire.HeaderBytes - 4 + n
			body = append(body[:keep:keep], p.forged...)
		}
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		if _, err := down.Write(append(frame, body...)); err != nil {
			return
		}
	}
}

// TestForgedRecordRefused puts an on-path writer between leader and
// follower that turns the first replicated record into an enroll of a
// user the leader never saw. The follower must refuse the frame, apply
// nothing from it, reconnect and converge on the leader's true
// population. (With a CRC-only record frame, the follower logged and
// served the forged user.)
func TestForgedRecordRefused(t *testing.T) {
	// The forged WAL payload: the first record of a store whose first
	// write enrolls mallory, so it carries the sequence number of the
	// record it replaces.
	scratch := openStore(t, t.TempDir(), store.Options{NoSync: true})
	var forged []byte
	cancel := scratch.SubscribeReplication(func(_ int, _ uint64, payload []byte) {
		if forged == nil {
			forged = append([]byte(nil), payload...)
		}
	})
	if err := scratch.Enroll("mallory", fakeSamples("mallory", 2, 9), false); err != nil {
		t.Fatalf("Enroll mallory: %v", err)
	}
	cancel()
	_ = scratch.Close()

	leaderStore := openStore(t, t.TempDir(), store.Options{NoSync: true})
	defer func() { _ = leaderStore.Close() }()
	for i, user := range []string{"alice", "bob"} {
		if err := leaderStore.Enroll(user, fakeSamples(user, 2, float64(i)), false); err != nil {
			t.Fatalf("Enroll %s: %v", user, err)
		}
	}
	leader, replAddr := startLeader(t, leaderStore, "")
	defer func() { _ = leader.Close() }()
	proxy := startForgingProxy(t, replAddr, forged)

	followerStore := openStore(t, t.TempDir(), store.Options{NoSync: true})
	defer func() { _ = followerStore.Close() }()
	follower, err := StartFollower(FollowerConfig{
		Store:       followerStore,
		Key:         testKey,
		LeaderAddr:  proxy.ln.Addr().String(),
		Logf:        t.Logf,
		RedialDelay: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	defer func() { _ = follower.Close() }()

	waitConverged(t, followerStore, leaderStore.ShardLastSeqs())
	if proxy.swapped.Load() != 1 {
		t.Fatalf("the proxy forged %d record frames, want 1", proxy.swapped.Load())
	}
	if proxy.sessions.Load() < 2 {
		t.Errorf("the follower kept the session that carried the forged frame")
	}
	pop := followerStore.Population()
	if _, ok := pop["mallory"]; ok {
		t.Fatalf("the follower applied the forged enroll of mallory")
	}
	if !reflect.DeepEqual(pop, leaderStore.Population()) {
		t.Fatalf("follower population %v differs from the leader's", reflect.ValueOf(pop).MapKeys())
	}
}

// parentFrame frames a payload the way replication did before every
// frame was sealed: a length and CRC32 header and, on handshake frames
// (key not nil), an HMAC-SHA256 trailer under the key.
func parentFrame(payload, key []byte) []byte {
	if key != nil {
		mac := hmac.New(sha256.New, key)
		mac.Write(payload)
		payload = mac.Sum(payload)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
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

// TestParentFramedHandshakeRefused pins that neither end speaks the old
// framing: a hello framed the old way is refused by the leader, and a
// welcome framed the old way by the follower. Either way the connection
// closes and nothing is applied.
func TestParentFramedHandshakeRefused(t *testing.T) {
	t.Run("hello", func(t *testing.T) {
		leaderStore := openStore(t, t.TempDir(), store.Options{NoSync: true})
		defer func() { _ = leaderStore.Close() }()
		if err := leaderStore.Enroll("alice", fakeSamples("alice", 1, 0), false); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
		leader, replAddr := startLeader(t, leaderStore, "")
		defer func() { _ = leader.Close() }()

		conn, err := net.Dial("tcp", replAddr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		hello := appendSeqs([]byte{frameHello, 1}, []uint64{0})
		if _, err := conn.Write(parentFrame(hello, testKey)); err != nil {
			t.Fatalf("write hello: %v", err)
		}
		closedWithoutReply(t, conn, "old-format hello")
		if st := leader.Status(); len(st.Followers) != 0 {
			t.Fatalf("leader registered %d followers", len(st.Followers))
		}
	})

	t.Run("welcome", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer ln.Close()
		followerStore := openStore(t, t.TempDir(), store.Options{NoSync: true})
		defer func() { _ = followerStore.Close() }()
		follower, err := StartFollower(FollowerConfig{
			Store:       followerStore,
			Key:         testKey,
			LeaderAddr:  ln.Addr().String(),
			Logf:        t.Logf,
			RedialDelay: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("StartFollower: %v", err)
		}
		defer func() { _ = follower.Close() }()

		conn, err := ln.Accept()
		if err != nil {
			t.Fatalf("accept: %v", err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := wire.ReadBody(conn, nil, maxFrameBytes); err != nil {
			t.Fatalf("read hello: %v", err)
		}
		// An old-format welcome, then an old-format record of a real
		// enroll behind it.
		welcome := appendSeqs(binio.AppendString([]byte{frameWelcome, 1}, ""), []uint64{1})
		src := openStore(t, t.TempDir(), store.Options{NoSync: true})
		var record []byte
		cancel := src.SubscribeReplication(func(_ int, _ uint64, payload []byte) {
			record = append([]byte{frameRecord, 0}, payload...)
		})
		if err := src.Enroll("alice", fakeSamples("alice", 1, 0), false); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
		cancel()
		_ = src.Close()
		old := append(parentFrame(welcome, testKey), parentFrame(record, nil)...)
		if _, err := conn.Write(old); err != nil {
			t.Fatalf("write welcome: %v", err)
		}
		closedWithoutReply(t, conn, "old-format welcome")
		if follower.Status().Connected {
			t.Fatalf("follower reports connected after an old-format welcome")
		}
		if got := followerStore.ShardLastSeqs()[0]; got != 0 {
			t.Fatalf("follower applied %d records from an old-format stream", got)
		}
	})
}
