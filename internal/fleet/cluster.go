package fleet

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"smarteryou/internal/cluster"
	"smarteryou/internal/retrain"
	"smarteryou/internal/store"
	"smarteryou/internal/transport"
)

// Cluster is an in-process server topology a load run targets: a single
// authentication server, or shard-ownership cluster nodes in one of the
// layouts below.
type Cluster struct {
	// Addr is the client-facing address load traffic should target.
	Addr string

	multi []*multiNode

	failover     sync.Once
	failoverErr  error
	rebalance    sync.Once
	rebalanceErr error
	closeOne     sync.Once
}

// multiNode is one cluster member, or the single server (no node).
type multiNode struct {
	st   *store.Store
	node *cluster.Node
	srv  *transport.Server
	addr string

	srvClose sync.Once
}

// closeServer closes the node's client-facing server once: Failover
// closes node 0's mid-run and Close must not close it again.
func (mn *multiNode) closeServer() (err error) {
	mn.srvClose.Do(func() {
		if mn.srv != nil {
			err = mn.srv.Close()
		}
	})
	return err
}

// ClusterOptions configures StartCluster.
type ClusterOptions struct {
	// Key is the pre-shared HMAC key; required.
	Key []byte
	// Dir is a scratch directory for the servers' stores; required.
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
	if opts.Dir == "" {
		return nil, fmt.Errorf("fleet: every topology needs ClusterOptions.Dir for its stores")
	}
	switch sc.Cluster {
	case ClusterSingle:
		return startSingle(sc, w, opts)
	case ClusterFollower, ClusterMulti:
		return startMulti(sc, w, opts)
	default:
		return nil, fmt.Errorf("fleet: unknown cluster topology %q", sc.Cluster)
	}
}

// startSingle is the one-server topology: a multiNode with no cluster
// node around it. Its store skips fsync so the baseline scenarios measure
// the server, not this host's disk.
func startSingle(sc Scenario, w *Workload, opts ClusterOptions) (*Cluster, error) {
	st, err := store.Open(filepath.Join(opts.Dir, "single"), store.Options{NoSync: true})
	if err != nil {
		return nil, fmt.Errorf("fleet: single server store: %w", err)
	}
	mn := &multiNode{st: st}
	c := &Cluster{multi: []*multiNode{mn}}
	mn.srv, err = transport.NewServer(transport.ServerConfig{
		Key:      opts.Key,
		Detector: w.Detector,
		Logf:     opts.Logf,
		Store:    st,
		Retrain:  retrainConfig(sc.Retrain),
	})
	if err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("fleet: single server: %w", err)
	}
	addr, err := mn.srv.Start("127.0.0.1:0")
	if err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("fleet: start single server: %w", err)
	}
	c.Addr = addr.String()
	return c, nil
}

// layout is how a scenario's topology name maps onto the one cluster
// constructor: how many nodes run, how many of them the seed map lists
// (a node beyond them starts as a spare outside the map), how many of
// those own shards (alternating; a member that owns none is a read
// replica), and which node the load traffic targets.
type layout struct {
	nodes, members, owners, target int
}

const (
	// multiShards is the store's FNV shard count in every cluster layout.
	multiShards = 12
	// multiNodes sizes the ClusterMulti layout.
	multiNodes = 3
)

var layouts = map[string]layout{
	// Primary plus read replica: node 0 owns every shard and traffic is
	// aimed at node 1 without shard routing, so every write bounces
	// through a redirect and Failover has a survivor to take over.
	ClusterFollower: {nodes: 2, members: 2, owners: 1, target: 1},
	// Three full nodes: the first two own alternating shards at start; the
	// third is a cold spare outside the ownership map until Rebalance
	// joins it mid-run.
	ClusterMulti: {nodes: multiNodes, members: multiNodes - 1, owners: multiNodes - 1, target: 0},
}

func startMulti(sc Scenario, w *Workload, opts ClusterOptions) (*Cluster, error) {
	lay := layouts[sc.Cluster]
	c := &Cluster{}
	fail := func(step string, err error) (*Cluster, error) {
		_ = c.Close()
		return nil, fmt.Errorf("fleet: %s: %w", step, err)
	}

	listen := func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
	infos := make([]cluster.NodeInfo, lay.nodes)
	clientLns := make([]net.Listener, lay.nodes)
	replLns := make([]net.Listener, lay.nodes)
	ctrlLns := make([]net.Listener, lay.nodes)
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

	// A spare outside the seed map learns it at construction (membership
	// index -1) and joins during Rebalance.
	seed := &cluster.ShardMap{
		Version: 1,
		Nodes:   infos[:lay.members],
		Owner:   make([]int32, multiShards),
	}
	for shard := range seed.Owner {
		seed.Owner[shard] = int32(shard % lay.owners)
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
			Key:             opts.Key,
			Detector:        w.Detector,
			Logf:            opts.Logf,
			Store:           st,
			Router:          mn.node,
			Retrain:         retrainConfig(sc.Retrain),
			ReplicationInfo: mn.node.ReplicationInfo,
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
	c.Addr = infos[lay.target].ClientAddr
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
		if len(c.multi) < multiNodes {
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

// Failover kills node 0 — the owner of every shard in the ClusterFollower
// layout — and has node 1, which the cluster's Addr keeps pointing at,
// take its shards over. The sequence is lossless for acknowledged writes:
// the owner's client listener closes first (every acked enroll is then in
// its WAL), the mesh drains into the survivor, and only then does the
// owner's node die and the survivor claim its shards. Clients see the
// write path vanish for the transition window — redirected to an address
// that refuses connections — exactly the outage the harness wants to
// measure. Safe to call once; later calls are no-ops. Returns the
// transition duration.
func (c *Cluster) Failover() time.Duration {
	var took time.Duration
	c.failover.Do(func() {
		if len(c.multi) < 2 {
			return
		}
		owner, survivor := c.multi[0], c.multi[1]
		start := time.Now()
		_ = owner.closeServer()
		awaitCatchUp(owner.st, survivor.st, 5*time.Second)
		_ = owner.node.Close()
		c.failoverErr = survivor.node.TakeOver(time.Second)
		took = time.Since(start)
	})
	return took
}

// awaitCatchUp polls until the survivor store's durable cursors reach the
// owner store's, or the timeout lapses (the takeover then proceeds with
// whatever replicated — the acceptance test will catch real losses).
func awaitCatchUp(owner, survivor *store.Store, timeout time.Duration) {
	want := owner.ShardLastSeqs()
	deadline := time.Now().Add(timeout)
	for {
		got := survivor.ShardLastSeqs()
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
		for _, mn := range c.multi {
			keep(mn.closeServer())
			if mn.node != nil {
				keep(mn.node.Close()) // idempotent
			}
		}
		for _, mn := range c.multi {
			if mn.st != nil {
				keep(mn.st.Close())
			}
		}
	})
	return first
}
