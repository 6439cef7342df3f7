// Node: one member of the shard-ownership cluster — writable for the
// shards it owns, a read replica for the rest (a node that owns none is a
// pure replica). It serves its own store to peers (replication leader),
// follows every peer's store (the mesh), answers the transport layer's
// routing questions (transport.ShardRouter), and runs the control listener
// that moves ownership during handoff.
package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"smarteryou/internal/replication"
	"smarteryou/internal/store"
	"smarteryou/internal/transport"
)

// defaultSealTimeout bounds how long a sealed shard stays frozen when
// the acquiring node dies mid-handoff: no higher-version map arrives,
// the seal expires, and the owner resumes serving writes.
const defaultSealTimeout = 10 * time.Second

// defaultCtrlTimeout bounds one control exchange.
const defaultCtrlTimeout = 5 * time.Second

// NodeConfig configures one cluster node.
type NodeConfig struct {
	// Self is this node's own address triple. It identifies the node in
	// every shard map by its CtrlAddr, which must be unique cluster-wide.
	Self NodeInfo
	// Map is the cluster map at bring-up: BalancedMap over the founding
	// nodes, or the current cluster map for a node joining later (which
	// need not contain Self yet — Join adds it).
	Map *ShardMap
	// Store is this node's durable store; required. Its shard count must
	// equal the map's.
	Store *store.Store
	// Key is the pre-shared HMAC key sealing control frames and the
	// replication streams; required.
	Key []byte
	// Logf receives node logs; nil discards them.
	Logf func(format string, args ...any)
	// SealTimeout auto-unseals a sealed shard when no higher-version map
	// arrives — the acquirer died mid-handoff (default 10s).
	SealTimeout time.Duration
	// ReplListener/CtrlListener, when set, are pre-bound listeners for
	// the replication and control endpoints (their addresses must match
	// Self). Nil listens on Self's addresses at Start.
	ReplListener net.Listener
	CtrlListener net.Listener
}

// installedMap pairs a shard map with this node's index in it (-1 when
// the node is not a member), so the routing hot path resolves both with
// one atomic load.
type installedMap struct {
	m    *ShardMap
	self int
}

// Node is one cluster member. It implements transport.ShardRouter.
type Node struct {
	self        NodeInfo
	st          *store.Store
	key         []byte
	logf        func(format string, args ...any)
	sealTimeout time.Duration

	cur atomic.Pointer[installedMap]

	mu        sync.Mutex
	sealed    map[int]*time.Timer              // locally-owned shards frozen mid-handoff
	followers map[string]*replication.Follower // peer ReplAddr -> mesh follower
	started   bool
	closed    bool

	leader *replication.Leader
	ctrlLn net.Listener
	replLn net.Listener
	wg     sync.WaitGroup
	done   chan struct{}
}

// NewNode validates the config and builds a node (not yet started).
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("cluster: node needs a store")
	}
	if len(cfg.Key) == 0 {
		return nil, fmt.Errorf("cluster: node needs an HMAC key")
	}
	if cfg.Self.CtrlAddr == "" || cfg.Self.ReplAddr == "" || cfg.Self.ClientAddr == "" {
		return nil, fmt.Errorf("cluster: node needs a full address triple")
	}
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	if cfg.Map.Shards() != cfg.Store.ShardCount() {
		return nil, fmt.Errorf("cluster: map covers %d shards, store has %d", cfg.Map.Shards(), cfg.Store.ShardCount())
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sealTimeout := cfg.SealTimeout
	if sealTimeout <= 0 {
		sealTimeout = defaultSealTimeout
	}
	n := &Node{
		self:        cfg.Self,
		st:          cfg.Store,
		key:         cfg.Key,
		logf:        logf,
		sealTimeout: sealTimeout,
		sealed:      make(map[int]*time.Timer),
		followers:   make(map[string]*replication.Follower),
		replLn:      cfg.ReplListener,
		ctrlLn:      cfg.CtrlListener,
		done:        make(chan struct{}),
	}
	m := cfg.Map.Clone()
	n.cur.Store(&installedMap{m: m, self: n.indexIn(m)})
	return n, nil
}

// indexIn finds this node in a map by control address (-1: not a
// member).
func (n *Node) indexIn(m *ShardMap) int {
	for i, info := range m.Nodes {
		if info.CtrlAddr == n.self.CtrlAddr {
			return i
		}
	}
	return -1
}

// Map snapshots the node's current shard map.
func (n *Node) Map() *ShardMap { return n.cur.Load().m }

// Start brings the node online: replication leader over the local
// store, mesh followers to every peer in the current map, and the
// control listener. Call before serving client traffic; a transport
// server over the same store needs no wiring to it, because it reads the
// store the mesh writes.
func (n *Node) Start() error {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return fmt.Errorf("cluster: node already started")
	}
	n.started = true
	n.mu.Unlock()

	leader, err := replication.NewLeader(replication.LeaderConfig{
		Store:         n.st,
		Key:           n.key,
		AdvertiseAddr: n.self.ClientAddr,
		Logf:          n.logf,
		// Forward only owned shards: without this every record would be
		// re-forwarded by each peer that applied it — n·(n-1) frames per
		// write through the mesh instead of n-1 — and the dedup skip on
		// the receivers would burn CPU absorbing the echoes.
		ShardFilter: n.ownsShard,
	})
	if err != nil {
		return err
	}
	n.leader = leader
	if n.replLn == nil {
		ln, err := net.Listen("tcp", n.self.ReplAddr)
		if err != nil {
			return fmt.Errorf("cluster: listen replication %s: %w", n.self.ReplAddr, err)
		}
		n.replLn = ln
	}
	if _, err := leader.ServeListener(n.replLn); err != nil {
		return err
	}
	if n.ctrlLn == nil {
		ln, err := net.Listen("tcp", n.self.CtrlAddr)
		if err != nil {
			return fmt.Errorf("cluster: listen control %s: %w", n.self.CtrlAddr, err)
		}
		n.ctrlLn = ln
	}
	n.wg.Add(1)
	go n.acceptCtrl(n.ctrlLn)
	n.reconcileFollowers(n.cur.Load().m)
	return nil
}

// Close stops the control listener, mesh followers, replication leader
// and any pending seal timers. The store stays open for the caller.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.done)
	for shard, t := range n.sealed {
		t.Stop()
		delete(n.sealed, shard)
	}
	followers := make([]*replication.Follower, 0, len(n.followers))
	for _, f := range n.followers {
		followers = append(followers, f)
	}
	ctrlLn := n.ctrlLn
	n.mu.Unlock()

	var err error
	if ctrlLn != nil {
		err = ctrlLn.Close()
	}
	for _, f := range followers {
		_ = f.Close()
	}
	if n.leader != nil {
		_ = n.leader.Close()
	}
	n.wg.Wait()
	return err
}

// reconcileFollowers ensures a mesh follower exists for every peer in
// the map. Followers to nodes that left a map are kept: redial backoff
// is cheap, and a rejoining node resumes without churn.
func (n *Node) reconcileFollowers(m *ShardMap) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.started || n.closed {
		return
	}
	for _, info := range m.Nodes {
		if info.CtrlAddr == n.self.CtrlAddr || n.followers[info.ReplAddr] != nil {
			continue
		}
		f, err := replication.StartFollower(replication.FollowerConfig{
			Store:      n.st,
			Key:        n.key,
			LeaderAddr: info.ReplAddr,
			Logf:       n.logf,
		})
		if err != nil {
			n.logf("cluster: follow %s: %v", info.ReplAddr, err)
			continue
		}
		n.followers[info.ReplAddr] = f
	}
}

// ownsShard reports whether this node owns shard under the currently
// installed map — the replication leader's forwarding filter.
func (n *Node) ownsShard(shard int) bool {
	im := n.cur.Load()
	return shard >= 0 && shard < im.m.Shards() && im.m.OwnerOf(shard) == im.self
}

// RouteWrite implements transport.ShardRouter: where does a write for
// the (anonymized) user belong right now?
func (n *Node) RouteWrite(anonUser string) (transport.RouteDecision, string) {
	im := n.cur.Load()
	shard := im.m.ShardForUser(anonUser)
	owner := im.m.OwnerOf(shard)
	if owner != im.self {
		return transport.RouteRemote, im.m.Nodes[owner].ClientAddr
	}
	n.mu.Lock()
	_, sealed := n.sealed[shard]
	n.mu.Unlock()
	if sealed {
		return transport.RouteSealed, ""
	}
	return transport.RouteLocal, ""
}

// ShardMapInfo implements transport.ShardRouter: the client-facing map.
func (n *Node) ShardMapInfo() transport.ShardMapInfo {
	m := n.cur.Load().m
	return transport.ShardMapInfo{
		Version: m.Version,
		Nodes:   m.ClientAddrs(),
		Owners:  append([]int32(nil), m.Owner...),
	}
}

// OwnedShards implements transport.ShardRouter: this node's share of
// the shard space.
func (n *Node) OwnedShards() (owned, total int) {
	im := n.cur.Load()
	for _, o := range im.m.Owner {
		if int(o) == im.self {
			owned++
		}
	}
	return owned, im.m.Shards()
}

// ReplicationInfo is the node's slice of the server's stats response
// (transport.ServerConfig.ReplicationInfo): whether it owns any shard,
// whether the mesh stream from every peer is up, the local cursors, and
// each connected peer's acknowledged cursors and lag on the shards this
// node owns — the number to read before a TakeOver.
func (n *Node) ReplicationInfo() *transport.ReplicationInfo {
	info := &transport.ReplicationInfo{Role: "replica", ShardSeqs: n.st.ShardLastSeqs()}
	if owned, _ := n.OwnedShards(); owned > 0 {
		info.Role = "owner"
	}
	// Status reads store cursors under shard locks; RouteWrite must not
	// wait behind that on n.mu.
	n.mu.Lock()
	followers := make([]*replication.Follower, 0, len(n.followers))
	for _, f := range n.followers {
		followers = append(followers, f)
	}
	n.mu.Unlock()
	info.Connected = len(followers) > 0
	for _, f := range followers {
		info.Connected = info.Connected && f.Status().Connected
	}
	if n.leader != nil {
		for _, f := range n.leader.Status().Followers {
			info.Followers = append(info.Followers, transport.ReplicationFollower{Addr: f.Addr, Acked: f.Acked, Lag: f.Lag})
		}
	}
	return info
}

// installMap adopts a higher-version map: the routing state flips
// atomically, shards this node no longer owns are unsealed (the handoff
// that sealed them has completed elsewhere), and mesh followers are
// started toward any new peers. Reports whether the map was adopted.
func (n *Node) installMap(m *ShardMap) bool {
	if err := m.Validate(); err != nil {
		n.logf("cluster: rejecting map: %v", err)
		return false
	}
	if m.Shards() != n.st.ShardCount() {
		n.logf("cluster: rejecting map with %d shards (store has %d)", m.Shards(), n.st.ShardCount())
		return false
	}
	next := &installedMap{m: m, self: n.indexIn(m)}
	for {
		cur := n.cur.Load()
		if m.Version <= cur.m.Version {
			return false
		}
		if n.cur.CompareAndSwap(cur, next) {
			break
		}
	}
	n.mu.Lock()
	for shard, t := range n.sealed {
		if next.self < 0 || m.OwnerOf(shard) != next.self {
			t.Stop()
			delete(n.sealed, shard)
			n.st.UnsealShard(shard)
		}
	}
	n.mu.Unlock()
	n.reconcileFollowers(m)
	n.logf("cluster: installed shard map v%d (%d nodes, self=%d)", m.Version, len(m.Nodes), next.self)
	return true
}

// sealShard freezes one locally-owned shard for handoff and returns its
// cursor. The seal auto-expires after the node's seal timeout unless a
// higher-version map moves the shard away first.
func (n *Node) sealShard(shard int) (uint64, error) {
	im := n.cur.Load()
	if shard < 0 || shard >= im.m.Shards() {
		return 0, fmt.Errorf("shard %d out of range (%d shards)", shard, im.m.Shards())
	}
	if im.self < 0 || im.m.OwnerOf(shard) != im.self {
		return 0, fmt.Errorf("not the owner of shard %d (map v%d)", shard, im.m.Version)
	}
	cursor, err := n.st.SealShard(shard)
	if err != nil {
		return 0, err
	}
	n.mu.Lock()
	if t := n.sealed[shard]; t != nil {
		t.Stop()
	}
	n.sealed[shard] = time.AfterFunc(n.sealTimeout, func() { n.expireSeal(shard) })
	n.mu.Unlock()
	return cursor, nil
}

// expireSeal lifts a seal whose handoff never completed.
func (n *Node) expireSeal(shard int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.sealed[shard]; !ok {
		return
	}
	delete(n.sealed, shard)
	n.st.UnsealShard(shard)
	n.logf("cluster: seal on shard %d expired without a map push, resuming writes", shard)
}

// acceptCtrl serves the control listener until Close.
func (n *Node) acceptCtrl(ln net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-n.done:
			default:
				n.logf("cluster: control accept: %v", err)
			}
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveCtrl(conn)
		}()
	}
}

// serveCtrl handles control exchanges on one connection until it
// closes. Every frame authenticates independently.
func (n *Node) serveCtrl(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	c := newCtrlConn(conn, n.key)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(defaultSealTimeout))
		tb, payload, err := c.Read(ctrlNames)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, os.ErrDeadlineExceeded) && !errors.Is(err, net.ErrClosed) {
				n.logf("cluster: control frame rejected: %v", err)
			}
			return // EOF, timeout, framing or MAC failure: drop the connection
		}
		_ = conn.SetWriteDeadline(time.Now().Add(defaultCtrlTimeout))
		if err := writeCtrl(c, n.handleCtrl(tb, payload)); err != nil {
			return
		}
	}
}

// handleCtrl executes one verified control frame and builds the
// response frame.
func (n *Node) handleCtrl(tb byte, payload []byte) []byte {
	switch tb {
	case ctrlMapGet:
		return encodeMapFrame(ctrlMap, n.Map())
	case ctrlMapPush:
		m, err := DecodeShardMap(payload)
		if err != nil {
			return encodeCtrlErr(err.Error())
		}
		n.installMap(m) // stale pushes are fine: already converged
		return encodeOK()
	case ctrlSeal:
		req, err := decodeSealRequest(payload)
		if err != nil {
			return encodeCtrlErr(err.Error())
		}
		cursor, err := n.sealShard(req.shard)
		if err != nil {
			return encodeCtrlErr(err.Error())
		}
		return encodeCursorResponse(cursor)
	default:
		return encodeCtrlErr(fmt.Sprintf("unexpected control frame %#x", tb))
	}
}

// FetchMap asks any cluster node's control endpoint for its current
// shard map — how an operator or a joining process discovers the
// cluster before it has a node of its own.
func FetchMap(ctrlAddr string, key []byte, timeout time.Duration) (*ShardMap, error) {
	if timeout <= 0 {
		timeout = defaultCtrlTimeout
	}
	payload, err := ctrlRequest(ctrlAddr, key, encodeMapGet(), ctrlMap, timeout)
	if err != nil {
		return nil, err
	}
	return DecodeShardMap(payload)
}

// errNotMember reports operations that need cluster membership first.
var errNotMember = errors.New("cluster: node is not in the shard map (Join first)")
