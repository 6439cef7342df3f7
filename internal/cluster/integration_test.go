package cluster

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/retrain"
	"smarteryou/internal/sensing"
	"smarteryou/internal/store"
	"smarteryou/internal/transport"
)

// fixture is the shared end-to-end test corpus: a real context detector
// and per-user enrollment windows. Built once — detector training is
// the expensive part.
var (
	fixtureOnce sync.Once
	fixtureDet  *ctxdetect.Detector
	fixturePop  map[string][]features.WindowSample
	fixtureErr  error
)

func buildFixture(t testing.TB) (*ctxdetect.Detector, map[string][]features.WindowSample) {
	t.Helper()
	fixtureOnce.Do(func() {
		pop, err := sensing.NewPopulation(5, 777)
		if err != nil {
			fixtureErr = err
			return
		}
		fixturePop = make(map[string][]features.WindowSample)
		var ctxTrain []features.WindowSample
		for i, u := range pop.Users {
			samples, err := features.Collect(u, features.CollectOptions{
				WindowSeconds:  6,
				SessionSeconds: 60,
				Sessions:       1,
				Seed:           int64(10 + i),
			})
			if err != nil {
				fixtureErr = err
				return
			}
			fixturePop[u.ID] = samples
			ctxTrain = append(ctxTrain, samples...)
		}
		fixtureDet, fixtureErr = ctxdetect.Train(ctxdetect.FromSamples(ctxTrain), ctxdetect.Config{Seed: 1, Trees: 10})
	})
	if fixtureErr != nil {
		t.Fatalf("fixture: %v", fixtureErr)
	}
	return fixtureDet, fixturePop
}

// clusterServer is one full node: store, cluster membership, transport
// server.
type clusterServer struct {
	st       *store.Store
	node     *Node
	srv      *transport.Server
	addr     string
	replAddr string
	dir      string
	killOnce sync.Once
}

// kill stops the node the way a dead process does: client listener,
// control and replication endpoints and store all go away. Idempotent, so
// a test may kill a node its cleanup would close again.
func (cs *clusterServer) kill() {
	cs.killOnce.Do(func() {
		_ = cs.srv.Close()
		_ = cs.node.Close()
		_ = cs.st.Close()
	})
}

// drainAndKill is kill in the order that loses no acked write: the client
// listener closes first, so every enroll the node acked is in its log; the
// survivors' cursors then catch up with that log; only then do the node
// and its store go away. It reports survivors that never caught up.
func (cs *clusterServer) drainAndKill(survivors ...*clusterServer) error {
	err := errors.New("node already killed")
	cs.killOnce.Do(func() {
		_ = cs.srv.Close()
		err = awaitCursors(cs.st.ShardLastSeqs(), survivors, 10*time.Second)
		_ = cs.node.Close()
		_ = cs.st.Close()
	})
	return err
}

// awaitCursors polls until every survivor's per-shard cursors reach want.
func awaitCursors(want []uint64, survivors []*clusterServer, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, cs := range survivors {
		for {
			got := cs.st.ShardLastSeqs()
			caught := len(got) == len(want)
			for i := 0; caught && i < len(want); i++ {
				caught = got[i] >= want[i]
			}
			if caught {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("survivor %s stuck at cursors %v, want %v", cs.addr, got, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// startServedCluster brings up count full nodes — store + cluster node
// + transport server wired through the ShardRouter — on the balanced map
// and returns them with every listener live.
func startServedCluster(t testing.TB, count, shards int, opt store.Options, retrainCfg *retrain.Config) []*clusterServer {
	t.Helper()
	return startServedClusterOwnedBy(t, count, shards, opt, retrainCfg, -1)
}

// startServedClusterOwnedBy is startServedCluster with every shard of the
// version-1 map owned by one node, the others pure replicas (owner < 0
// keeps the balanced map).
func startServedClusterOwnedBy(t testing.TB, count, shards int, opt store.Options, retrainCfg *retrain.Config, owner int) []*clusterServer {
	t.Helper()
	det, _ := buildFixture(t)

	infos := make([]NodeInfo, count)
	clientLns := make([]net.Listener, count)
	replLns := make([]net.Listener, count)
	ctrlLns := make([]net.Listener, count)
	for i := range infos {
		clientLns[i], replLns[i], ctrlLns[i] = listen(t), listen(t), listen(t)
		infos[i] = NodeInfo{
			ClientAddr: clientLns[i].Addr().String(),
			ReplAddr:   replLns[i].Addr().String(),
			CtrlAddr:   ctrlLns[i].Addr().String(),
		}
	}
	m, err := BalancedMap(infos, shards)
	if err != nil {
		t.Fatalf("BalancedMap: %v", err)
	}
	if owner >= 0 {
		for shard := range m.Owner {
			m.Owner[shard] = int32(owner)
		}
	}
	opt.Shards = shards
	out := make([]*clusterServer, count)
	for i := range infos {
		dir := t.TempDir()
		st := openStore(t, dir, opt)
		node, err := NewNode(NodeConfig{
			Self:         infos[i],
			Map:          m,
			Store:        st,
			Key:          testKey,
			SealTimeout:  2 * time.Second,
			ReplListener: replLns[i],
			CtrlListener: ctrlLns[i],
		})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", i, err)
		}
		srv, err := transport.NewServer(transport.ServerConfig{
			Key:             testKey,
			Detector:        det,
			Store:           st,
			Router:          node,
			Retrain:         retrainCfg,
			ReplicationInfo: node.ReplicationInfo,
		})
		if err != nil {
			t.Fatalf("NewServer(%d): %v", i, err)
		}
		if err := node.Start(); err != nil {
			t.Fatalf("node.Start(%d): %v", i, err)
		}
		if _, err := srv.StartListener(clientLns[i]); err != nil {
			t.Fatalf("srv.Start(%d): %v", i, err)
		}
		cs := &clusterServer{st: st, node: node, srv: srv, addr: infos[i].ClientAddr, replAddr: infos[i].ReplAddr, dir: dir}
		t.Cleanup(cs.kill)
		out[i] = cs
	}
	return out
}

func routedClient(t testing.TB, addr string) *transport.Client {
	t.Helper()
	c, err := transport.NewClient(transport.ClientConfig{
		Addr:         addr,
		Key:          testKey,
		Timeout:      10 * time.Second,
		RouteByShard: true,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return c
}

// TestClusterEndToEnd drives the full stack: a shard-routing client
// enrolls and trains against a 3-node cluster, writes land partitioned
// across owners, any node authenticates any user, a live rebalance
// redirects the (stale-mapped) client transparently, and the
// drift-state message reports monitor state.
func TestClusterEndToEnd(t *testing.T) {
	_, pop := buildFixture(t)
	servers := startServedCluster(t, 3, 6, store.Options{NoSync: true, SnapshotEvery: -1},
		&retrain.Config{Threshold: -10, MinWindows: 1 << 30}) // monitor only, never fire

	client := routedClient(t, servers[0].addr)

	// The shard map is served and cached.
	info, err := client.ShardMap()
	if err != nil {
		t.Fatalf("ShardMap: %v", err)
	}
	if info.Version != 1 || len(info.Nodes) != 3 || len(info.Owners) != 6 {
		t.Fatalf("ShardMap = %+v", info)
	}

	users := make([]string, 0, len(pop))
	for id, samples := range pop {
		if _, err := client.Enroll(id, samples); err != nil {
			t.Fatalf("Enroll(%s): %v", id, err)
		}
		users = append(users, id)
	}
	// Map order would pick a random target below, and one fixture user's
	// first window is a genuine false reject that leaves its drift state at
	// zero windows.
	sort.Strings(users)

	// Enrolls were partitioned: no node's local write cursor covers the
	// whole population, every node converges to all of it.
	mesh := make([]*testNode, len(servers))
	for i, cs := range servers {
		mesh[i] = &testNode{st: cs.st, node: cs.node}
	}
	waitMeshConverged(t, mesh)
	for i, cs := range servers {
		if got := len(cs.st.Population()); got != len(users) {
			t.Fatalf("node %d population = %d users, want %d", i, got, len(users))
		}
	}

	// Train through the routed client, then authenticate the user against
	// every node — reads are served anywhere.
	target := users[0]
	bundle, _, err := client.TrainVersioned(target, transport.TrainParams{})
	if err != nil {
		t.Fatalf("Train(%s): %v", target, err)
	}
	if bundle == nil {
		t.Fatal("no bundle")
	}
	waitMeshConverged(t, mesh)
	window := pop[target][0]
	for i, cs := range servers {
		direct, err := transport.NewClient(transport.ClientConfig{Addr: cs.addr, Key: testKey, Timeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("NewClient(%d): %v", i, err)
		}
		if _, err := direct.Authenticate(target, window); err != nil {
			t.Fatalf("Authenticate on node %d: %v", i, err)
		}
	}

	// Drift state: the authenticates above fed some node's monitor.
	found := false
	for _, cs := range servers {
		direct, err := transport.NewClient(transport.ClientConfig{Addr: cs.addr, Key: testKey, Timeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		if st, ok, err := direct.DriftState(target); err != nil {
			t.Fatalf("DriftState: %v", err)
		} else if ok {
			found = true
			if st.Windows == 0 || st.LastTrainAgeSeconds < 0 {
				t.Fatalf("DriftState = %+v", st)
			}
		}
		states, err := direct.DriftStates(10)
		if err != nil {
			t.Fatalf("DriftStates: %v", err)
		}
		for i := 1; i < len(states); i++ {
			if states[i-1].EWMA > states[i].EWMA {
				t.Fatalf("DriftStates not ascending: %+v", states)
			}
		}
	}
	if !found {
		t.Fatal("no node has drift state for the authenticated user")
	}

	// Live rebalance: node 2 takes over node 0's shards; the client's
	// cached map is now stale, but redirects chase it to the new owner
	// and the refreshed map routes the rest directly.
	moved := servers[0].node.Map().OwnedBy(0)
	if err := servers[2].node.AcquireShards(moved, 10*time.Second); err != nil {
		t.Fatalf("AcquireShards: %v", err)
	}
	for _, id := range users {
		if _, err := client.Enroll(id, pop[id][:1]); err != nil {
			t.Fatalf("Enroll(%s) after rebalance: %v", id, err)
		}
	}
	if m, err := client.ShardMap(); err != nil || m.Version < 2 {
		t.Fatalf("client map after rebalance = v%d, %v (want >= v2)", m.Version, err)
	}
	waitMeshConverged(t, mesh)
	for i, cs := range servers {
		pop2 := cs.st.Population()
		for _, id := range users {
			anon := transport.AnonymizeUser(id)
			if len(pop2[anon]) != len(pop[id])+1 {
				t.Fatalf("node %d has %d windows for %s, want %d", i, len(pop2[anon]), id, len(pop[id])+1)
			}
		}
	}
}

// TestClusterPartitionsWrites pins the tentpole claim at the wire
// level: a non-owner answers an enroll with a redirect carrying the
// owner's address, and a plain (non-routing) client surfaces it as a
// RedirectError rather than silently writing to the wrong node.
func TestClusterPartitionsWrites(t *testing.T) {
	_, pop := buildFixture(t)
	servers := startServedCluster(t, 2, 4, store.Options{NoSync: true, SnapshotEvery: -1}, nil)

	var user string
	for id := range pop {
		user = id
		break
	}
	// Find the node that does NOT own this user.
	var nonOwner, owner *clusterServer
	for _, cs := range servers {
		if d, _ := cs.node.RouteWrite(transport.AnonymizeUser(user)); d == transport.RouteLocal {
			owner = cs
		} else {
			nonOwner = cs
		}
	}
	if owner == nil || nonOwner == nil {
		t.Fatal("could not split owner/non-owner")
	}
	plain, err := transport.NewClient(transport.ClientConfig{Addr: nonOwner.addr, Key: testKey, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	_, err = plain.Enroll(user, pop[user][:1])
	var re *transport.RedirectError
	if !errors.As(err, &re) {
		t.Fatalf("enroll at non-owner: %v, want RedirectError", err)
	}
	if re.Leader != owner.addr {
		t.Fatalf("redirect to %q, want %q", re.Leader, owner.addr)
	}
}

// TestServedWritesSurviveHandoffAndTakeOver moves shard ownership twice
// under routed wire traffic — a live handoff, then the new owner's death
// and a takeover — and checks what a client sees: routed writers chase
// redirects and sealed-shard busies to each new owner and keep getting
// acks, no acked enroll goes missing, node 1's per-shard sequences have no
// gap, and a reader authenticating against node 1 throughout never fails.
func TestServedWritesSurviveHandoffAndTakeOver(t *testing.T) {
	_, pop := buildFixture(t)
	servers := startServedCluster(t, 3, 6, store.Options{NoSync: true, SnapshotEvery: -1}, nil)
	n0, n1, n2 := servers[0], servers[1], servers[2]

	ids := make([]string, 0, len(pop))
	for id := range pop {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	reader := ids[0]
	setup := routedClient(t, n1.addr)
	for _, id := range ids {
		if _, err := setup.Enroll(id, pop[id]); err != nil {
			t.Fatalf("Enroll(%s): %v", id, err)
		}
	}
	// The reader's owner trains against the other users' windows, which
	// reach it by replication (the links may still be dialling): wait for
	// them, as TestClusterEndToEnd does.
	waitMeshConverged(t, meshOf(servers...))
	if _, _, err := setup.TrainVersioned(reader, transport.TrainParams{Seed: 1}); err != nil {
		t.Fatalf("TrainVersioned(%s): %v", reader, err)
	}
	waitMeshConverged(t, meshOf(servers...))

	const writers = 4
	var (
		acks      [writers]atomic.Int64
		acked     sync.Map // user -> struct{}
		authOK    atomic.Int64
		authErrs  atomic.Int64
		firstAuth atomic.Value
		wg        sync.WaitGroup
		stopOnce  sync.Once
	)
	stop := make(chan struct{})
	// stopTraffic is deferred, so a t.Fatalf below stops the writers and
	// the reader before the test returns.
	stopTraffic := func() {
		stopOnce.Do(func() { close(stop) })
		wg.Wait()
	}
	defer stopTraffic()
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	for w := 0; w < writers; w++ {
		// Maps are fetched from a survivor, so a refresh still answers once
		// node 2 is dead.
		c := routedClient(t, servers[w%2].addr)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stopped(); i++ {
				user := fmt.Sprintf("w%d-user-%04d", w, i)
				src := ids[i%len(ids)]
				deadline := time.Now().Add(15 * time.Second)
				for {
					_, err := c.Enroll(user, pop[src])
					if err == nil {
						acked.Store(user, struct{}{})
						acks[w].Add(1)
						break
					}
					// A dead owner refuses connections until the takeover
					// publishes a map without it.
					if stopped() {
						return
					}
					if time.Now().After(deadline) {
						t.Errorf("writer %d: enroll %s: %v", w, user, err)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(w)
	}
	rc := plainClient(t, n1.addr)
	wg.Add(1)
	go func() {
		defer wg.Done()
		window := pop[reader][0]
		for !stopped() {
			if _, err := rc.Authenticate(reader, window); err != nil {
				firstAuth.CompareAndSwap(nil, err.Error())
				authErrs.Add(1)
				continue
			}
			authOK.Add(1)
		}
	}()

	// awaitAcks waits for every writer to be acked after what just happened.
	awaitAcks := func(after string) {
		t.Helper()
		var base [writers]int64
		for w := range base {
			base[w] = acks[w].Load()
		}
		deadline := time.Now().Add(30 * time.Second)
		for w := range base {
			for acks[w].Load() <= base[w] {
				if time.Now().After(deadline) {
					t.Fatalf("writer %d got no ack after %s", w, after)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	awaitAcks("the start")

	// 1. Live handoff: node 2 takes node 0's shards.
	if err := n2.node.AcquireShards(n0.node.Map().OwnedBy(0), 10*time.Second); err != nil {
		t.Fatalf("AcquireShards: %v", err)
	}
	awaitAcks("node 2 acquired node 0's shards")

	// 2. Node 2, now the owner of four shards, is drained and dies.
	if err := n2.drainAndKill(n0, n1); err != nil {
		t.Fatalf("drain node 2: %v", err)
	}
	// 3. Node 1 takes the dead node's shards over.
	if err := n1.node.TakeOver(time.Second); err != nil {
		t.Fatalf("TakeOver: %v", err)
	}
	awaitAcks("node 1 took over node 2's shards")
	stopTraffic()

	if n := authErrs.Load(); n != 0 {
		t.Errorf("reader saw %d authenticate errors against node 1 (first: %v)", n, firstAuth.Load())
	}
	if authOK.Load() == 0 {
		t.Error("reader completed no authenticate")
	}
	waitMeshConverged(t, meshOf(n0, n1))
	pops := []map[string][]features.WindowSample{n0.st.Population(), n1.st.Population()}
	users := 0
	acked.Range(func(user, _ any) bool {
		users++
		anon := transport.AnonymizeUser(user.(string))
		for i, p := range pops {
			if len(p[anon]) == 0 {
				t.Errorf("%s: acked, missing on live node %d", user, i)
			}
		}
		return true
	})
	t.Logf("%d acked enrolls; reader: %d authenticates", users, authOK.Load())
	for shard, last := range n1.st.ShardLastSeqs() {
		recs, err := n1.st.ShardRecordsSince(shard, 0)
		if err != nil {
			t.Fatalf("shard %d log: %v", shard, err)
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Fatalf("node 1 shard %d record %d has sequence %d, want %d", shard, i, r.Seq, i+1)
			}
		}
		if uint64(len(recs)) != last {
			t.Fatalf("node 1 shard %d log holds %d records, cursor says %d", shard, len(recs), last)
		}
	}
}
