package replication

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"smarteryou/internal/cas"
	"smarteryou/internal/store"
)

// LeaderConfig configures the leader side of replication.
type LeaderConfig struct {
	// Store is the leader's durable store; required.
	Store *store.Store
	// Key is the pre-shared HMAC key followers must present; required.
	Key []byte
	// AdvertiseAddr is the leader's client-facing address, sent to
	// followers in the welcome frame and reported in their Status.
	AdvertiseAddr string
	// Logf receives leader logs; nil discards them.
	Logf func(format string, args ...any)
	// QueueDepth bounds each follower's live-record queue (default
	// 8192); a follower that falls further behind than the queue holds
	// is disconnected and catches up on reconnect.
	QueueDepth int
	// ShardFilter, when set, restricts what this leader streams: only
	// records and backlog for shards the filter accepts are sent. In a
	// full-mesh cluster every node is a leader and every record would
	// otherwise be re-forwarded by each peer that applied it — n·(n-1)
	// frames per write instead of n-1. Filtering to owned shards keeps
	// exactly one forwarder per record (its owner, which has the shard's
	// full history). The filter is consulted per record, so ownership
	// changes take effect live; followers that lose an in-flight range to
	// a filter flip see a sequence gap, reconnect, and catch up from the
	// new owner's backlog. Nil forwards everything (single-leader
	// topology).
	ShardFilter func(shard int) bool
}

// Leader streams the store's WAL to connected followers. Create with
// NewLeader, start with Serve, stop with Close.
type Leader struct {
	st     *store.Store
	key    []byte
	adv    string
	logf   func(format string, args ...any)
	depth  int
	filter func(shard int) bool

	mu    sync.Mutex
	conns map[*leaderConn]struct{}

	// Catch-up byte accounting across all follower sessions: full
	// snapshot bytes shipped, delta bytes shipped, and delta bytes
	// *avoided* because the follower already held the chunks.
	fullBytes       atomic.Uint64
	deltaBytes      atomic.Uint64
	deltaSavedBytes atomic.Uint64

	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}
}

// outRec is one live record queued for a follower.
type outRec struct {
	shard   int
	seq     uint64
	payload []byte
}

// leaderConn is the leader's state for one connected follower.
type leaderConn struct {
	conn net.Conn
	out  chan outRec
	// version is the protocol version from the follower's hello; delta
	// catch-up needs >= 2.
	version int
	// declared tracks the chunk hashes the follower holds: seeded from
	// its hello, extended by every chunk this session ships. Only the
	// session goroutine touches it.
	declared map[cas.Hash]struct{}
	// dead is closed when the connection must be torn down (queue
	// overflow, read error, leader shutdown).
	dead     chan struct{}
	deadOnce sync.Once

	mu    sync.Mutex
	acked []uint64
}

// markDead tears the connection down exactly once; the blocked writer
// and reader unblock via the closed socket.
func (fc *leaderConn) markDead() {
	fc.deadOnce.Do(func() {
		close(fc.dead)
		_ = fc.conn.Close()
	})
}

// push enqueues a live record without blocking: the sink runs under a
// store shard's lock, so a slow follower must never stall an enroll.
func (fc *leaderConn) push(shard int, seq uint64, payload []byte) {
	select {
	case fc.out <- outRec{shard: shard, seq: seq, payload: payload}:
	case <-fc.dead:
	default:
		// Queue overflow: this follower is too far behind to tail live.
		// Drop the connection; it will reconnect and catch up from the
		// log (or a snapshot).
		fc.markDead()
	}
}

// NewLeader builds a leader over an open store.
func NewLeader(cfg LeaderConfig) (*Leader, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("replication: leader needs a store")
	}
	if len(cfg.Key) == 0 {
		return nil, fmt.Errorf("replication: leader needs an HMAC key")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = defaultQueueDepth
	}
	return &Leader{
		st:     cfg.Store,
		key:    cfg.Key,
		adv:    cfg.AdvertiseAddr,
		logf:   logf,
		depth:  depth,
		filter: cfg.ShardFilter,
		conns:  make(map[*leaderConn]struct{}),
		closed: make(chan struct{}),
	}, nil
}

// Serve starts the replication listener on addr (e.g. "127.0.0.1:0")
// and accepts followers until Close. It returns the bound address.
func (l *Leader) Serve(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("replication: listen: %w", err)
	}
	return l.ServeListener(ln)
}

// ServeListener is Serve over an already-bound listener — cluster
// bring-up binds every port first so the shard map can carry final
// addresses before any node starts.
func (l *Leader) ServeListener(ln net.Listener) (net.Addr, error) {
	l.ln = ln
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				select {
				case <-l.closed:
				default:
					l.logf("replication accept: %v", err)
				}
				return
			}
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				l.handle(conn)
			}()
		}
	}()
	return ln.Addr(), nil
}

// Close stops the listener and tears down every follower stream.
func (l *Leader) Close() error {
	close(l.closed)
	var err error
	if l.ln != nil {
		err = l.ln.Close()
	}
	l.mu.Lock()
	for fc := range l.conns {
		fc.markDead()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

// Status reports the leader's cursors and each follower's progress. Lag
// counts only shards the ShardFilter forwards: for the rest this leader
// ships nothing and receives no acks, so their difference says nothing.
func (l *Leader) Status() Status {
	lead := l.st.ShardLastSeqs()
	forwarded := lead
	if l.filter != nil {
		forwarded = make([]uint64, len(lead))
		for shard, seq := range lead {
			if l.filter(shard) {
				forwarded[shard] = seq
			}
		}
	}
	st := Status{
		Role:                   "leader",
		ShardSeqs:              lead,
		CatchupFullBytes:       l.fullBytes.Load(),
		CatchupDeltaBytes:      l.deltaBytes.Load(),
		CatchupDeltaSavedBytes: l.deltaSavedBytes.Load(),
	}
	l.mu.Lock()
	for fc := range l.conns {
		fc.mu.Lock()
		acked := append([]uint64(nil), fc.acked...)
		fc.mu.Unlock()
		st.Followers = append(st.Followers, FollowerProgress{
			Addr:  fc.conn.RemoteAddr().String(),
			Acked: acked,
			Lag:   lagBetween(forwarded, acked),
		})
	}
	l.mu.Unlock()
	return st
}

// handle runs one follower session: handshake, catch-up, live tail.
func (l *Leader) handle(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	remote := conn.RemoteAddr().String()

	c := newConn(conn, l.key)
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	tb, payload, err := c.Read(names)
	if err == nil && tb != frameHello {
		err = fmt.Errorf("frame type %#x, want hello", tb)
	}
	if err != nil {
		l.logf("replication %s: read hello: %v", remote, err)
		return
	}
	hello, err := decodeHello(payload)
	if err != nil {
		l.logf("replication %s: %v", remote, err)
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	shards := l.st.ShardCount()
	if err := checkShardCounts(shards, len(hello.seqs)); err != nil {
		l.logf("replication %s: %v", remote, err)
		if send(c, frameError, appendErrorFrame, err.Error()) == nil {
			_ = c.flush() // the session ends either way
		}
		return
	}

	fc := &leaderConn{
		conn:     conn,
		out:      make(chan outRec, l.depth),
		version:  hello.version,
		declared: make(map[cas.Hash]struct{}, len(hello.hashes)),
		dead:     make(chan struct{}),
		acked:    append([]uint64(nil), hello.seqs...),
	}
	for _, h := range hello.hashes {
		fc.declared[h] = struct{}{}
	}
	l.mu.Lock()
	l.conns[fc] = struct{}{}
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.conns, fc)
		l.mu.Unlock()
	}()

	// Subscribe before reading cursors: anything appended from here on
	// is queued, so the disk catch-up below plus the queue covers the
	// whole log with overlap (deduplicated by sequence number), never a
	// gap. The shard filter drops rejected records at the queue door —
	// consulted per record, so an ownership change takes effect on the
	// very next append.
	sink := fc.push
	if l.filter != nil {
		sink = func(shard int, seq uint64, payload []byte) {
			if l.filter(shard) {
				fc.push(shard, seq, payload)
			}
		}
	}
	cancel := l.st.SubscribeReplication(sink)
	defer cancel()

	// All writes to this follower (welcome, backlog, snapshots, live
	// tail) happen from this goroutine, buffered: under load many small
	// record frames coalesce into one segment, and the stream loop
	// flushes whenever its queue goes momentarily idle.
	if err := send(c, frameWelcome, appendWelcome, welcomeFrame{
		version:    1,
		clientAddr: l.adv,
		seqs:       l.st.ShardLastSeqs(),
	}); err != nil {
		l.logf("replication %s: write welcome: %v", remote, err)
		return
	}
	if err := c.flush(); err != nil {
		l.logf("replication %s: write welcome: %v", remote, err)
		return
	}

	// Reader side, on its own goroutine (the connection keeps one MAC
	// per direction): acknowledgements drive the lag accounting.
	// Followers coalesce acks under load, so several often arrive in one
	// read.
	go func() {
		defer fc.markDead()
		for {
			tb, payload, err := c.Read(names)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
					l.logf("replication %s: read ack: %v", remote, err)
				}
				return
			}
			if tb != frameAck {
				l.logf("replication %s: frame type %#x, want ack", remote, tb)
				return
			}
			ack, err := decodeAck(payload)
			if err != nil || ack.shard < 0 || ack.shard >= shards {
				l.logf("replication %s: bad ack: %v", remote, err)
				return
			}
			fc.mu.Lock()
			if ack.seq > fc.acked[ack.shard] {
				fc.acked[ack.shard] = ack.seq
			}
			fc.mu.Unlock()
		}
	}()

	sent := append([]uint64(nil), hello.seqs...)
	if err := l.catchUp(fc, c, sent); err != nil {
		l.logf("replication %s: catch-up: %v", remote, err)
		fc.markDead()
		return
	}
	if err := c.flush(); err != nil {
		l.logf("replication %s: catch-up: %v", remote, err)
		fc.markDead()
		return
	}
	l.logf("replication %s: follower caught up to %v, tailing", remote, sent)
	l.stream(fc, c, sent)
}

// catchUp brings one follower to the leader's durable state per shard:
// log records when they are still on disk, a streamed snapshot when they
// were compacted away. sent is updated to the cursor reached per shard.
func (l *Leader) catchUp(fc *leaderConn, c *conn, sent []uint64) error {
	for shard := range sent {
		if l.filter != nil && !l.filter(shard) {
			continue // not this leader's shard; its owner serves the backlog
		}
		for attempt := 0; ; attempt++ {
			recs, err := l.st.ShardRecordsSince(shard, sent[shard])
			if err == nil {
				for _, r := range recs {
					if err := send(c, frameRecord, appendRecord, recordFrame{shard: shard, payload: r.Payload}); err != nil {
						return err
					}
					sent[shard] = r.Seq
				}
				break
			}
			if !errors.Is(err, store.ErrCompacted) || attempt >= 3 {
				return err
			}
			// The follower's cursor predates the oldest log record: ship
			// the shard's state (copy-on-write view; appends continue) and
			// retry the log tail from the shipped cursor. Version-2
			// followers get a delta — the snapshot body plus only the
			// chunks they don't hold; older ones get the full snapshot.
			var lastSeq uint64
			if fc.version >= 2 {
				lastSeq, err = l.sendDelta(fc, c, shard, sent[shard])
			} else {
				lastSeq, err = l.sendFullSnapshot(c, shard, sent[shard])
			}
			if err != nil {
				return err
			}
			sent[shard] = lastSeq
		}
	}
	return nil
}

// sendFullSnapshot encodes and streams one full shard snapshot in
// bounded chunks, returning the cursor it covers.
func (l *Leader) sendFullSnapshot(c *conn, shard int, cursor uint64) (uint64, error) {
	data, lastSeq, err := l.st.ShardSnapshotBytes(shard)
	if err != nil {
		return 0, err
	}
	if lastSeq <= cursor {
		return 0, fmt.Errorf("replication: shard %d snapshot at %d does not cover cursor %d", shard, lastSeq, cursor)
	}
	l.fullBytes.Add(uint64(len(data)))
	for off := 0; ; off += snapshotChunkBytes {
		end := off + snapshotChunkBytes
		last := end >= len(data)
		if last {
			end = len(data)
		}
		chunk := snapshotChunk{shard: shard, last: last, data: data[off:end]}
		if last {
			chunk.lastSeq = lastSeq
		}
		if err := send(c, frameSnapshot, appendSnapshotChunk, chunk); err != nil {
			return 0, err
		}
		if last {
			return lastSeq, nil
		}
	}
}

// sendDelta ships one shard's content-addressed snapshot body plus only
// the chunks the follower has not declared, in batches cut near
// snapshotChunkBytes. Every shipped chunk joins the declared set — the
// follower's CAS is store-wide, so a chunk shipped for shard 0 need not
// ship again for shard 1.
func (l *Leader) sendDelta(fc *leaderConn, c *conn, shard int, cursor uint64) (uint64, error) {
	body, lastSeq, chunks, err := l.st.ShardDelta(shard)
	if err != nil {
		return 0, err
	}
	if lastSeq <= cursor {
		return 0, fmt.Errorf("replication: shard %d delta at %d does not cover cursor %d", shard, lastSeq, cursor)
	}
	if err := send(c, frameDeltaBody, appendDeltaBody, deltaBody{shard: shard, data: body}); err != nil {
		return 0, err
	}
	sent := uint64(len(body))
	batch := deltaChunks{shard: shard}
	batchBytes := 0
	flush := func() error {
		if len(batch.hashes) == 0 {
			return nil
		}
		if err := send(c, frameDeltaChunks, appendDeltaChunks, batch); err != nil {
			return err
		}
		batch.hashes = batch.hashes[:0]
		batch.data = batch.data[:0]
		batchBytes = 0
		return nil
	}
	for h, data := range chunks {
		if _, ok := fc.declared[h]; ok {
			l.deltaSavedBytes.Add(uint64(len(data)))
			continue
		}
		fc.declared[h] = struct{}{}
		batch.hashes = append(batch.hashes, h)
		batch.data = append(batch.data, data)
		batchBytes += cas.HashSize + len(data)
		sent += uint64(cas.HashSize + len(data))
		if batchBytes >= snapshotChunkBytes {
			if err := flush(); err != nil {
				return 0, err
			}
		}
	}
	if err := flush(); err != nil {
		return 0, err
	}
	if err := send(c, frameDeltaDone, appendDeltaDone, deltaDone{shard: shard, lastSeq: lastSeq}); err != nil {
		return 0, err
	}
	l.deltaBytes.Add(sent)
	return lastSeq, nil
}

// stream forwards live records until the connection dies or the leader
// closes. Records at or below the already-sent cursor (duplicates from
// the catch-up overlap) are skipped. Each wakeup drains everything the
// queue already holds into the buffered writer and flushes once — under
// load dozens of records ride one syscall, while an isolated record
// still goes out immediately.
func (l *Leader) stream(fc *leaderConn, c *conn, sent []uint64) {
	send := func(r outRec) bool {
		if r.seq <= sent[r.shard] {
			return true
		}
		if err := send(c, frameRecord, appendRecord, recordFrame{shard: r.shard, payload: r.payload}); err != nil {
			return false
		}
		sent[r.shard] = r.seq
		return true
	}
	for {
		select {
		case r := <-fc.out:
			if !send(r) {
				fc.markDead()
				return
			}
			for drained := false; !drained; {
				select {
				case r := <-fc.out:
					if !send(r) {
						fc.markDead()
						return
					}
				default:
					drained = true
				}
			}
			if err := c.flush(); err != nil {
				fc.markDead()
				return
			}
		case <-fc.dead:
			return
		case <-l.closed:
			fc.markDead()
			return
		}
	}
}
