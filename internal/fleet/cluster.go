package fleet

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"smarteryou/internal/cluster"
	"smarteryou/internal/replication"
	"smarteryou/internal/retrain"
	"smarteryou/internal/store"
	"smarteryou/internal/transport"
)

// Cluster is an in-process server topology a load run targets: either a
// single (in-memory) authentication server, or a durable leader–follower
// pair with the client traffic aimed at the follower so redirect and
// failover behaviour is on the hot path.
type Cluster struct {
	// Addr is the client-facing address load traffic should target.
	Addr string
	// LeaderAddr is the leader's client-facing address ("" for single
	// topology after failover).
	LeaderAddr string

	single *transport.Server

	mu          sync.Mutex // guards leaderSrv/leader handoff between Failover and Close
	leaderSrv   *transport.Server
	leaderStore *store.Store
	leader      *replication.Leader

	followerSrv   *transport.Server
	followerStore *store.Store
	follower      *replication.Follower

	// multi topology: shard-ownership nodes, the last one starting
	// outside the ownership map as the Rebalance spare.
	multi []*multiNode

	failover     sync.Once
	rebalance    sync.Once
	rebalanceErr error
	closeOne     sync.Once
}

// multiNode is one member of the multi-node topology.
type multiNode struct {
	st   *store.Store
	node *cluster.Node
	srv  *transport.Server
	addr string
}

// ClusterOptions configures StartCluster.
type ClusterOptions struct {
	// Key is the pre-shared HMAC key; required.
	Key []byte
	// Dir is a scratch directory for durable stores; required for the
	// follower topology, ignored for single.
	Dir string
	// Logf receives server logs; nil discards them.
	Logf func(format string, args ...any)
}

// retrainConfig maps scenario knobs onto the server retrain subsystem.
func retrainConfig(k *RetrainKnobs) *retrain.Config {
	if k == nil {
		return nil
	}
	return &retrain.Config{
		Threshold:     k.Threshold,
		MinWindows:    k.MinWindows,
		Cooldown:      k.RetrainCooldown(),
		Budget:        k.Budget,
		RecentWindows: k.RecentWindows,
	}
}

// StartCluster builds and starts the scenario's topology on loopback
// listeners. Close the cluster when the run finishes.
func StartCluster(sc Scenario, w *Workload, opts ClusterOptions) (*Cluster, error) {
	sc = sc.withDefaults()
	switch sc.Cluster {
	case ClusterSingle:
		return startSingle(sc, w, opts)
	case ClusterFollower:
		return startFollowerPair(sc, w, opts)
	case ClusterMulti:
		return startMulti(sc, w, opts)
	default:
		return nil, fmt.Errorf("fleet: unknown cluster topology %q", sc.Cluster)
	}
}

func startSingle(sc Scenario, w *Workload, opts ClusterOptions) (*Cluster, error) {
	srv, err := transport.NewServer(transport.ServerConfig{
		Key:      opts.Key,
		Detector: w.Detector,
		Logf:     opts.Logf,
		Retrain:  retrainConfig(sc.Retrain),
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: single server: %w", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, fmt.Errorf("fleet: start single server: %w", err)
	}
	return &Cluster{Addr: addr.String(), LeaderAddr: addr.String(), single: srv}, nil
}

func startFollowerPair(sc Scenario, w *Workload, opts ClusterOptions) (*Cluster, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("fleet: follower topology needs ClusterOptions.Dir for durable stores")
	}
	c := &Cluster{}
	fail := func(step string, err error) (*Cluster, error) {
		_ = c.Close()
		return nil, fmt.Errorf("fleet: %s: %w", step, err)
	}

	var err error
	c.leaderStore, err = store.Open(filepath.Join(opts.Dir, "leader"), store.Options{})
	if err != nil {
		return fail("leader store", err)
	}
	// The detector rides the WAL to the follower like any other record,
	// mirroring how a real follower bootstraps.
	if err := c.leaderStore.PublishDetector(w.Detector); err != nil {
		return fail("publish detector", err)
	}
	c.leaderSrv, err = transport.NewServer(transport.ServerConfig{
		Key:      opts.Key,
		Detector: w.Detector,
		Logf:     opts.Logf,
		Store:    c.leaderStore,
		Retrain:  retrainConfig(sc.Retrain),
	})
	if err != nil {
		return fail("leader server", err)
	}
	leaderAddr, err := c.leaderSrv.Start("127.0.0.1:0")
	if err != nil {
		return fail("start leader", err)
	}
	c.LeaderAddr = leaderAddr.String()

	c.leader, err = replication.NewLeader(replication.LeaderConfig{
		Store:         c.leaderStore,
		Key:           opts.Key,
		AdvertiseAddr: c.LeaderAddr,
		Logf:          opts.Logf,
	})
	if err != nil {
		return fail("replication leader", err)
	}
	replAddr, err := c.leader.Serve("127.0.0.1:0")
	if err != nil {
		return fail("replication listener", err)
	}

	c.followerStore, err = store.Open(filepath.Join(opts.Dir, "follower"), store.Options{})
	if err != nil {
		return fail("follower store", err)
	}
	c.followerSrv, err = transport.NewServer(transport.ServerConfig{
		Key:        opts.Key,
		Detector:   w.Detector,
		Logf:       opts.Logf,
		Store:      c.followerStore,
		Follower:   true,
		LeaderAddr: c.LeaderAddr,
	})
	if err != nil {
		return fail("follower server", err)
	}
	c.follower, err = replication.StartFollower(replication.FollowerConfig{
		Store:        c.followerStore,
		Key:          opts.Key,
		LeaderAddr:   replAddr.String(),
		Logf:         opts.Logf,
		OnLeaderAddr: c.followerSrv.SetLeaderAddr,
	})
	if err != nil {
		return fail("replication follower", err)
	}
	followerAddr, err := c.followerSrv.Start("127.0.0.1:0")
	if err != nil {
		return fail("start follower", err)
	}
	c.Addr = followerAddr.String()
	return c, nil
}

// Multi-topology sizing: three full nodes over twelve FNV shards. The
// first two own alternating shards at start; the third is a cold spare
// outside the ownership map until Rebalance joins it mid-run.
const (
	multiNodes  = 3
	multiShards = 12
)

func startMulti(sc Scenario, w *Workload, opts ClusterOptions) (*Cluster, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("fleet: cluster topology needs ClusterOptions.Dir for durable stores")
	}
	c := &Cluster{}
	fail := func(step string, err error) (*Cluster, error) {
		_ = c.Close()
		return nil, fmt.Errorf("fleet: %s: %w", step, err)
	}

	listen := func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
	infos := make([]cluster.NodeInfo, multiNodes)
	clientLns := make([]net.Listener, multiNodes)
	replLns := make([]net.Listener, multiNodes)
	ctrlLns := make([]net.Listener, multiNodes)
	for i := range infos {
		var err error
		if clientLns[i], err = listen(); err != nil {
			return fail("cluster listeners", err)
		}
		if replLns[i], err = listen(); err != nil {
			return fail("cluster listeners", err)
		}
		if ctrlLns[i], err = listen(); err != nil {
			return fail("cluster listeners", err)
		}
		infos[i] = cluster.NodeInfo{
			ClientAddr: clientLns[i].Addr().String(),
			ReplAddr:   replLns[i].Addr().String(),
			CtrlAddr:   ctrlLns[i].Addr().String(),
		}
	}

	// The seed map covers the first two nodes only; the spare learns it
	// at construction (membership index -1) and joins during Rebalance.
	seed := &cluster.ShardMap{
		Version: 1,
		Nodes:   infos[:multiNodes-1],
		Owner:   make([]int32, multiShards),
	}
	for shard := range seed.Owner {
		seed.Owner[shard] = int32(shard % (multiNodes - 1))
	}

	for i := range infos {
		// ReplicaNoSync is the cluster store configuration: the shard
		// owner fsyncs before acking and the handoff path re-syncs before
		// ownership moves, so mesh copies skip the per-record fsync.
		st, err := store.Open(filepath.Join(opts.Dir, fmt.Sprintf("node-%d", i)),
			store.Options{Shards: multiShards, ReplicaNoSync: true})
		if err != nil {
			return fail(fmt.Sprintf("node %d store", i), err)
		}
		mn := &multiNode{st: st, addr: infos[i].ClientAddr}
		c.multi = append(c.multi, mn)
		mn.node, err = cluster.NewNode(cluster.NodeConfig{
			Self:         infos[i],
			Map:          seed,
			Store:        st,
			Key:          opts.Key,
			Logf:         opts.Logf,
			SealTimeout:  15 * time.Second,
			ReplListener: replLns[i],
			CtrlListener: ctrlLns[i],
		})
		if err != nil {
			return fail(fmt.Sprintf("node %d", i), err)
		}
		mn.srv, err = transport.NewServer(transport.ServerConfig{
			Key:      opts.Key,
			Detector: w.Detector,
			Logf:     opts.Logf,
			Store:    st,
			Router:   mn.node,
			Retrain:  retrainConfig(sc.Retrain),
		})
		if err != nil {
			return fail(fmt.Sprintf("node %d server", i), err)
		}
		if err := mn.node.Start(); err != nil {
			return fail(fmt.Sprintf("start node %d", i), err)
		}
		if _, err := mn.srv.StartListener(clientLns[i]); err != nil {
			return fail(fmt.Sprintf("serve node %d", i), err)
		}
	}
	c.Addr = infos[0].ClientAddr
	c.LeaderAddr = infos[0].ClientAddr
	return c, nil
}

// Rebalance joins the spare node into the ownership map and hands it a
// balanced share of shards with a live handoff: seal at the old owners,
// converge over the mesh, publish the Version+1 map. Acked writes are
// never lost — sealed writes were never acked, and the handoff cursor
// covers everything that was. Safe to call once; later calls are
// no-ops. Returns the transition duration.
func (c *Cluster) Rebalance() time.Duration {
	var took time.Duration
	c.rebalance.Do(func() {
		if len(c.multi) == 0 {
			return
		}
		spare := c.multi[len(c.multi)-1].node
		start := time.Now()
		if err := spare.Join(10 * time.Second); err != nil {
			c.rebalanceErr = fmt.Errorf("join: %w", err)
			took = time.Since(start)
			return
		}
		// Take an equal share: the trailing slice of each standing
		// owner's shards, leaving every node with shards/nodes.
		m := spare.Map()
		var want []int
		per := m.Shards() / multiNodes
		for owner := 0; owner < multiNodes-1; owner++ {
			owned := m.OwnedBy(owner)
			if give := len(owned) - per; give > 0 {
				want = append(want, owned[len(owned)-give:]...)
			}
		}
		if err := spare.AcquireShards(want, 10*time.Second); err != nil {
			c.rebalanceErr = fmt.Errorf("acquire: %w", err)
		}
		took = time.Since(start)
	})
	return took
}

// cluster's Addr keeps serving throughout. The sequence is lossless for
// acknowledged writes: the leader's client listener closes first (every
// acked enroll is then in the WAL), the replication stream drains into
// the follower, and only then does the replication leader die and the
// follower promote. Clients see the write path vanish for the transition
// window — connection refused on the old leader, redirect-then-refused on
// the follower — exactly the outage the harness wants to measure. Safe to
// call once; later calls are no-ops. Returns the transition duration.
func (c *Cluster) Failover() time.Duration {
	var took time.Duration
	c.failover.Do(func() {
		if c.follower == nil {
			return
		}
		start := time.Now()
		c.mu.Lock()
		leader, leaderSrv := c.leader, c.leaderSrv
		c.leader, c.leaderSrv = nil, nil
		c.mu.Unlock()
		if leaderSrv != nil {
			_ = leaderSrv.Close()
		}
		if leader != nil {
			c.awaitCatchUp(5 * time.Second)
			_ = leader.Close()
		}
		c.follower.Promote()
		c.followerSrv.Promote()
		c.LeaderAddr = c.Addr
		took = time.Since(start)
	})
	return took
}

// awaitCatchUp polls until the follower store's durable cursors reach the
// leader store's, or the timeout lapses (the promotion then proceeds with
// whatever replicated — the acceptance test will catch real losses).
func (c *Cluster) awaitCatchUp(timeout time.Duration) {
	want := c.leaderStore.ShardLastSeqs()
	deadline := time.Now().Add(timeout)
	for {
		got := c.followerStore.ShardLastSeqs()
		caught := true
		for i := range want {
			if i >= len(got) || got[i] < want[i] {
				caught = false
				break
			}
		}
		if caught || time.Now().After(deadline) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Close tears the topology down. Stores close after their servers so
// in-flight requests can still append.
func (c *Cluster) Close() error {
	var first error
	c.closeOne.Do(func() {
		keep := func(err error) {
			if err != nil && first == nil {
				first = err
			}
		}
		if c.single != nil {
			keep(c.single.Close())
		}
		for _, mn := range c.multi {
			if mn.srv != nil {
				keep(mn.srv.Close())
			}
			if mn.node != nil {
				keep(mn.node.Close())
			}
		}
		for _, mn := range c.multi {
			if mn.st != nil {
				keep(mn.st.Close())
			}
		}
		c.mu.Lock()
		leader, leaderSrv := c.leader, c.leaderSrv
		c.leader, c.leaderSrv = nil, nil
		c.mu.Unlock()
		if leader != nil {
			keep(leader.Close())
		}
		if c.follower != nil {
			keep(c.follower.Close())
		}
		if leaderSrv != nil {
			keep(leaderSrv.Close())
		}
		if c.followerSrv != nil {
			keep(c.followerSrv.Close())
		}
		if c.leaderStore != nil {
			keep(c.leaderStore.Close())
		}
		if c.followerStore != nil {
			keep(c.followerStore.Close())
		}
	})
	return first
}
