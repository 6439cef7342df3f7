package replication

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"smarteryou/internal/cas"
	"smarteryou/internal/store"
)

// FollowerConfig configures the follower side of replication.
type FollowerConfig struct {
	// Store is the follower's local store; required. It must have the
	// same shard count as the leader's.
	Store *store.Store
	// Key is the pre-shared HMAC key; required.
	Key []byte
	// LeaderAddr is the leader's replication listener address; required.
	LeaderAddr string
	// Logf receives follower logs; nil discards them.
	Logf func(format string, args ...any)
	// OnApply, when set, observes every replicated operation after it is
	// durable locally — the read-only server uses it to keep caches in
	// step. Called from the replication goroutine.
	OnApply func(op store.ReplicatedOp)
	// OnSnapshot, when set, observes each installed shard snapshot (the
	// shard's state was wholesale replaced, not incrementally mutated).
	OnSnapshot func(shard int)
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// RedialDelay spaces reconnection attempts (default 250ms).
	RedialDelay time.Duration
	// DisableDelta forces protocol version 1: catch-up past a compacted
	// log ships full snapshots instead of chunk deltas. For benchmarking
	// the two paths against each other and as an escape hatch.
	DisableDelta bool
}

// Follower maintains a replication stream from a leader, applying
// records into the local store and reconnecting on any failure. Create
// with StartFollower; stop with Close.
type Follower struct {
	cfg  FollowerConfig
	logf func(format string, args ...any)

	connected atomic.Bool

	mu         sync.Mutex
	conn       net.Conn
	leaderAddr string
	stopped    bool

	done chan struct{}
	wg   sync.WaitGroup
}

// StartFollower validates the config and starts the replication loop.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("replication: follower needs a store")
	}
	if len(cfg.Key) == 0 {
		return nil, fmt.Errorf("replication: follower needs an HMAC key")
	}
	if cfg.LeaderAddr == "" {
		return nil, fmt.Errorf("replication: follower needs a leader address")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = defaultDialTimeout
	}
	if cfg.RedialDelay <= 0 {
		cfg.RedialDelay = defaultRedialDelay
	}
	f := &Follower{cfg: cfg, logf: cfg.Logf, done: make(chan struct{})}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.run()
	}()
	return f, nil
}

// Close stops the replication loop and closes the stream. The store is
// left open for the caller.
func (f *Follower) Close() error {
	f.stop()
	f.wg.Wait()
	return nil
}

// stop shuts the loop down idempotently.
func (f *Follower) stop() {
	f.mu.Lock()
	if !f.stopped {
		f.stopped = true
		close(f.done)
	}
	if f.conn != nil {
		_ = f.conn.Close()
	}
	f.mu.Unlock()
}

// Status reports the stream state and the local cursors.
func (f *Follower) Status() Status {
	st := Status{
		Role:      "follower",
		Connected: f.connected.Load(),
		ShardSeqs: f.cfg.Store.ShardLastSeqs(),
	}
	f.mu.Lock()
	st.LeaderAddr = f.leaderAddr
	f.mu.Unlock()
	return st
}

// run dials, streams, and redials until stopped.
func (f *Follower) run() {
	for {
		select {
		case <-f.done:
			return
		default:
		}
		if err := f.session(); err != nil {
			select {
			case <-f.done:
				return
			default:
				f.logf("replication follower: %v (reconnecting in %v)", err, f.cfg.RedialDelay)
			}
		}
		select {
		case <-f.done:
			return
		case <-time.After(f.cfg.RedialDelay):
		}
	}
}

// session runs one connection lifetime: handshake, then apply frames
// until an error. Every return path leaves the durable cursors intact,
// so the next session resumes exactly where this one stopped.
func (f *Follower) session() (err error) {
	conn, err := net.DialTimeout("tcp", f.cfg.LeaderAddr, f.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("dial %s: %w", f.cfg.LeaderAddr, err)
	}
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		_ = conn.Close()
		return nil
	}
	f.conn = conn
	f.mu.Unlock()
	defer func() {
		f.connected.Store(false)
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
		_ = conn.Close()
	}()

	st := f.cfg.Store
	cursors := st.ShardLastSeqs()
	// Buffered both ways: record frames arrive many to a segment from
	// the leader's batched writer, and acks are written only when the
	// read side is about to block, so a burst of applies costs one ack
	// write instead of one per record.
	c := newConn(conn, f.cfg.Key)
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	hello := helloFrame{version: 2, seqs: cursors}
	if f.cfg.DisableDelta {
		hello.version = 1
	} else {
		// Declare the chunks already on hand so a delta catch-up ships
		// only what's missing.
		hello.hashes = st.CASHashes()
	}
	if err := send(c, frameHello, appendHello, hello); err != nil {
		return fmt.Errorf("send hello: %w", err)
	}
	if err := c.flush(); err != nil {
		return fmt.Errorf("send hello: %w", err)
	}
	tb, payload, err := c.Read(names)
	if err != nil {
		return fmt.Errorf("read welcome: %w", err)
	}
	switch tb {
	case frameWelcome:
	case frameError:
		msg, _ := decodeErrorFrame(payload)
		return fmt.Errorf("leader refused: %s", msg)
	default:
		return fmt.Errorf("read welcome: frame type %#x", tb)
	}
	welcome, err := decodeWelcome(payload)
	if err != nil {
		return err
	}
	_ = conn.SetDeadline(time.Time{})
	if err := checkShardCounts(st.ShardCount(), len(welcome.seqs)); err != nil {
		return err
	}
	if welcome.clientAddr != "" {
		f.mu.Lock()
		f.leaderAddr = welcome.clientAddr
		f.mu.Unlock()
	}
	f.connected.Store(true)
	f.logf("replication follower: connected to %s at cursors %v (leader at %v)",
		f.cfg.LeaderAddr, cursors, welcome.seqs)

	// Partial snapshot bytes per shard while chunks stream in, and the
	// in-flight delta state (body + shipped chunk payloads) per shard.
	pending := make(map[int][]byte)
	deltaBodies := make(map[int][]byte)
	deltaData := make(map[int]map[cas.Hash][]byte)
	for {
		// Flush pending acks only when about to block: the leader never
		// waits on acks (they feed lag accounting), so holding them while
		// buffered frames remain is free, and an idle stream still acks
		// promptly.
		if !c.FrameBuffered() {
			if err := c.flush(); err != nil {
				return fmt.Errorf("flush acks: %w", err)
			}
		}
		// A frame that fails its MAC ends the session here, before
		// anything in it is applied; the next session resumes from the
		// durable cursors.
		tb, payload, err := c.Read(names)
		if err != nil {
			return fmt.Errorf("read frame: %w", err)
		}
		switch tb {
		case frameRecord:
			rf, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			if rf.shard < 0 || rf.shard >= len(cursors) {
				return fmt.Errorf("record for shard %d of %d", rf.shard, len(cursors))
			}
			op, applied, err := st.ApplyReplicated(rf.shard, rf.payload)
			if err != nil {
				return fmt.Errorf("apply shard %d: %w", rf.shard, err)
			}
			if applied {
				cursors[rf.shard] = op.Seq
				if f.cfg.OnApply != nil {
					f.cfg.OnApply(op)
				}
			}
			// Ack the durable cursor either way: a duplicate means the
			// leader replayed overlap we already hold.
			if err := send(c, frameAck, appendAck, ackFrame{shard: rf.shard, seq: cursors[rf.shard]}); err != nil {
				return fmt.Errorf("send ack: %w", err)
			}
		case frameSnapshot:
			chunk, err := decodeSnapshotChunk(payload)
			if err != nil {
				return err
			}
			if chunk.shard < 0 || chunk.shard >= len(cursors) {
				return fmt.Errorf("snapshot for shard %d of %d", chunk.shard, len(cursors))
			}
			pending[chunk.shard] = append(pending[chunk.shard], chunk.data...)
			if !chunk.last {
				continue
			}
			data := pending[chunk.shard]
			delete(pending, chunk.shard)
			lastSeq, err := st.InstallShardSnapshot(chunk.shard, data)
			if err != nil {
				return fmt.Errorf("install shard %d snapshot: %w", chunk.shard, err)
			}
			cursors[chunk.shard] = lastSeq
			f.logf("replication follower: installed shard %d snapshot (%d bytes) at seq %d",
				chunk.shard, len(data), lastSeq)
			if f.cfg.OnSnapshot != nil {
				f.cfg.OnSnapshot(chunk.shard)
			}
			if err := send(c, frameAck, appendAck, ackFrame{shard: chunk.shard, seq: lastSeq}); err != nil {
				return fmt.Errorf("send ack: %w", err)
			}
		case frameDeltaBody:
			d, err := decodeDeltaBody(payload)
			if err != nil {
				return err
			}
			if d.shard < 0 || d.shard >= len(cursors) {
				return fmt.Errorf("delta for shard %d of %d", d.shard, len(cursors))
			}
			deltaBodies[d.shard] = append([]byte(nil), d.data...)
		case frameDeltaChunks:
			d, err := decodeDeltaChunks(payload)
			if err != nil {
				return err
			}
			if d.shard < 0 || d.shard >= len(cursors) {
				return fmt.Errorf("delta chunks for shard %d of %d", d.shard, len(cursors))
			}
			m := deltaData[d.shard]
			if m == nil {
				m = make(map[cas.Hash][]byte)
				deltaData[d.shard] = m
			}
			for i, h := range d.hashes {
				m[h] = d.data[i]
			}
		case frameDeltaDone:
			d, err := decodeDeltaDone(payload)
			if err != nil {
				return err
			}
			if d.shard < 0 || d.shard >= len(cursors) {
				return fmt.Errorf("delta done for shard %d of %d", d.shard, len(cursors))
			}
			body := deltaBodies[d.shard]
			if body == nil {
				return fmt.Errorf("delta done for shard %d without a body", d.shard)
			}
			chunks := deltaData[d.shard]
			delete(deltaBodies, d.shard)
			delete(deltaData, d.shard)
			lastSeq, err := st.InstallShardDelta(d.shard, body, chunks)
			if err != nil {
				return fmt.Errorf("install shard %d delta: %w", d.shard, err)
			}
			if lastSeq != d.lastSeq {
				return fmt.Errorf("shard %d delta installed at seq %d, leader said %d", d.shard, lastSeq, d.lastSeq)
			}
			cursors[d.shard] = lastSeq
			shipped := 0
			for _, c := range chunks {
				shipped += len(c)
			}
			f.logf("replication follower: installed shard %d delta (%d body bytes, %d chunk bytes) at seq %d",
				d.shard, len(body), shipped, lastSeq)
			if f.cfg.OnSnapshot != nil {
				f.cfg.OnSnapshot(d.shard)
			}
			if err := send(c, frameAck, appendAck, ackFrame{shard: d.shard, seq: lastSeq}); err != nil {
				return fmt.Errorf("send ack: %w", err)
			}
		case frameError:
			msg, _ := decodeErrorFrame(payload)
			return fmt.Errorf("leader error: %s", msg)
		default:
			return fmt.Errorf("unexpected frame type %#x", tb)
		}
	}
}
