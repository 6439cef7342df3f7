package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
	"smarteryou/internal/store"
	"smarteryou/internal/transport"
	"smarteryou/internal/wire"
)

var testKey = []byte("cluster-test-key")

// fakeSamples builds deterministic feature windows without the sensing
// pipeline; the store and the mesh treat them opaquely.
func fakeSamples(user string, n int, base float64) []features.WindowSample {
	sf := func(v float64) features.SensorFeatures {
		return features.SensorFeatures{
			Mean: v, Var: 1 + v/10, Max: v + 2, Min: v - 2, Ran: 4,
			Peak: v, PeakF: 1 + v/100, Peak2: v / 2, Peak2F: 2,
		}
	}
	out := make([]features.WindowSample, n)
	for i := range out {
		v := base + float64(i)*0.1
		out[i] = features.WindowSample{
			UserID:  user,
			Context: sensing.ContextStationaryUse,
			Day:     float64(i) / 10,
			Phone:   features.DeviceFeatures{Acc: sf(v), Gyr: sf(v + 1)},
			Watch:   features.DeviceFeatures{Acc: sf(v + 2), Gyr: sf(v + 3)},
		}
	}
	return out
}

func openStore(t testing.TB, dir string, opt store.Options) *store.Store {
	t.Helper()
	s, err := store.Open(dir, opt)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func listen(t testing.TB) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return ln
}

type testNode struct {
	st   *store.Store
	node *Node
}

// startCluster brings up a fresh count-node cluster over shards store
// shards, every port pre-bound so the balanced map carries final
// addresses.
func startCluster(t testing.TB, count, shards int, opt store.Options) []*testNode {
	t.Helper()
	infos := make([]NodeInfo, count)
	replLns := make([]net.Listener, count)
	ctrlLns := make([]net.Listener, count)
	for i := range infos {
		replLns[i], ctrlLns[i] = listen(t), listen(t)
		infos[i] = NodeInfo{
			ClientAddr: fmt.Sprintf("client-addr-%d", i),
			ReplAddr:   replLns[i].Addr().String(),
			CtrlAddr:   ctrlLns[i].Addr().String(),
		}
	}
	m, err := BalancedMap(infos, shards)
	if err != nil {
		t.Fatalf("BalancedMap: %v", err)
	}
	opt.Shards = shards
	nodes := make([]*testNode, count)
	for i := range infos {
		st := openStore(t, t.TempDir(), opt)
		n, err := NewNode(NodeConfig{
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
		if err := n.Start(); err != nil {
			t.Fatalf("Start(%d): %v", i, err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes[i] = &testNode{st: st, node: n}
	}
	return nodes
}

// ownerNode finds the node that currently serves writes for user,
// riding out seals.
func ownerNode(t testing.TB, nodes []*testNode, user string) *testNode {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, tn := range nodes {
			if d, _ := tn.node.RouteWrite(user); d == transport.RouteLocal {
				return tn
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no node serves writes for %s", user)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// enrollRouted writes one enrollment the way a routed client would:
// find the owner, write there, retry through seals and ownership moves.
func enrollRouted(t testing.TB, nodes []*testNode, user string, samples []features.WindowSample) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tn := ownerNode(t, nodes, user)
		err := tn.st.Enroll(user, samples, false)
		if err == nil {
			return
		}
		if !errors.Is(err, store.ErrSealed) || time.Now().After(deadline) {
			t.Fatalf("enroll %s: %v", user, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitMeshConverged polls until every node reports identical per-shard
// cursors (writers must be quiescent).
func waitMeshConverged(t testing.TB, nodes []*testNode) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		want := nodes[0].st.ShardLastSeqs()
		same := true
		for _, tn := range nodes[1:] {
			if !reflect.DeepEqual(tn.st.ShardLastSeqs(), want) {
				same = false
				break
			}
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			for i, tn := range nodes {
				t.Logf("node %d cursors: %v", i, tn.st.ShardLastSeqs())
			}
			t.Fatalf("mesh never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitMapVersion polls until the node has installed a map at or above
// version.
func waitMapVersion(t testing.TB, n *Node, version uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n.Map().Version < version {
		if time.Now().After(deadline) {
			t.Fatalf("map stuck at v%d, want >= v%d", n.Map().Version, version)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterRoutedWritesConverge is the bring-up path: every node owns
// a slice of the shard space, writes land only at owners, and the mesh
// replicates the full population everywhere.
func TestClusterRoutedWritesConverge(t *testing.T) {
	nodes := startCluster(t, 3, 6, store.Options{NoSync: true, SnapshotEvery: -1})

	for _, tn := range nodes {
		owned, total := tn.node.OwnedShards()
		if owned != 2 || total != 6 {
			t.Fatalf("OwnedShards = %d/%d, want 2/6", owned, total)
		}
	}

	users := make([]string, 24)
	for i := range users {
		users[i] = fmt.Sprintf("user-%02d", i)
		enrollRouted(t, nodes, users[i], fakeSamples(users[i], 3, float64(i)))
	}
	waitMeshConverged(t, nodes)

	// Every node holds the complete population.
	for i, tn := range nodes {
		pop := tn.st.Population()
		if len(pop) != len(users) {
			t.Fatalf("node %d population = %d users, want %d", i, len(pop), len(users))
		}
		for _, u := range users {
			if len(pop[u]) != 3 {
				t.Fatalf("node %d has %d windows for %s, want 3", i, len(pop[u]), u)
			}
		}
	}

	// Non-owners route to the owner's client address.
	owner := ownerNode(t, nodes, users[0])
	for _, tn := range nodes {
		if tn == owner {
			continue
		}
		d, addr := tn.node.RouteWrite(users[0])
		if d != transport.RouteRemote {
			t.Fatalf("non-owner decision = %v, want RouteRemote", d)
		}
		if addr != owner.node.self.ClientAddr {
			t.Fatalf("redirect addr = %q, want %q", addr, owner.node.self.ClientAddr)
		}
	}

	// The served map matches cluster reality.
	info := nodes[1].node.ShardMapInfo()
	if info.Version != 1 || len(info.Nodes) != 3 || len(info.Owners) != 6 {
		t.Fatalf("ShardMapInfo = %+v", info)
	}
}

// TestHandoffMovesOwnership hands one shard between live nodes: the map
// version advances everywhere, routing flips, sequences continue
// monotonically, and no enrolled window is lost.
func TestHandoffMovesOwnership(t *testing.T) {
	nodes := startCluster(t, 2, 4, store.Options{NoSync: true, SnapshotEvery: -1})

	users := make([]string, 12)
	for i := range users {
		users[i] = fmt.Sprintf("user-%02d", i)
		enrollRouted(t, nodes, users[i], fakeSamples(users[i], 2, float64(i)))
	}
	waitMeshConverged(t, nodes)

	// Move every node-0 shard to node 1.
	moved := nodes[0].node.Map().OwnedBy(0)
	if len(moved) == 0 {
		t.Fatal("node 0 owns nothing")
	}
	before := nodes[1].st.ShardLastSeqs()
	if err := nodes[1].node.AcquireShards(moved, 10*time.Second); err != nil {
		t.Fatalf("AcquireShards: %v", err)
	}
	waitMapVersion(t, nodes[0].node, 2)

	if owned, _ := nodes[1].node.OwnedShards(); owned != 4 {
		t.Fatalf("node 1 owns %d shards after handoff, want 4", owned)
	}
	if owned, _ := nodes[0].node.OwnedShards(); owned != 0 {
		t.Fatalf("node 0 owns %d shards after handoff, want 0", owned)
	}

	// Writes keep flowing for every user, now all landing at node 1, and
	// sequences continue past the handoff cursor.
	for i, u := range users {
		tn := ownerNode(t, nodes, u)
		if tn != nodes[1] {
			t.Fatalf("user %s still routed to node 0 after handoff", u)
		}
		enrollRouted(t, nodes, u, fakeSamples(u, 1, float64(100+i)))
	}
	after := nodes[1].st.ShardLastSeqs()
	for _, shard := range moved {
		if after[shard] <= before[shard] {
			t.Fatalf("shard %d cursor did not advance: %d -> %d", shard, before[shard], after[shard])
		}
	}
	waitMeshConverged(t, nodes)
	for i, tn := range nodes {
		pop := tn.st.Population()
		for _, u := range users {
			if len(pop[u]) != 3 {
				t.Fatalf("node %d has %d windows for %s after handoff, want 3", i, len(pop[u]), u)
			}
		}
	}
}

// TestSealExpiresWithoutPublish covers the aborted handoff: a sealed
// shard whose acquirer never publishes a map unfreezes after the seal
// timeout and the owner resumes serving writes.
func TestSealExpiresWithoutPublish(t *testing.T) {
	nodes := startCluster(t, 2, 2, store.Options{NoSync: true, SnapshotEvery: -1})
	n0 := nodes[0].node
	n0.sealTimeout = 150 * time.Millisecond

	shard := n0.Map().OwnedBy(0)[0]
	payload, err := ctrlRequest(n0.self.CtrlAddr, testKey, encodeSealRequest(sealRequest{shard: shard}), ctrlCursor, time.Second)
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	if _, err := decodeCursorResponse(payload); err != nil {
		t.Fatalf("cursor: %v", err)
	}

	// Sealed: owner refuses local writes for the shard.
	var user string
	for i := 0; ; i++ {
		user = fmt.Sprintf("seal-user-%d", i)
		if store.ShardIndex(user, 2) == shard {
			break
		}
	}
	if d, _ := n0.RouteWrite(user); d != transport.RouteSealed {
		t.Fatalf("decision during seal = %v, want RouteSealed", d)
	}
	if err := nodes[0].st.Enroll(user, fakeSamples(user, 1, 0), false); !errors.Is(err, store.ErrSealed) {
		t.Fatalf("enroll during seal: %v, want ErrSealed", err)
	}

	// Expired: writes flow again without any map change.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if d, _ := n0.RouteWrite(user); d == transport.RouteLocal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("seal never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := nodes[0].st.Enroll(user, fakeSamples(user, 1, 0), false); err != nil {
		t.Fatalf("enroll after expiry: %v", err)
	}
}

// TestJoinAndAcquireColdNode grows the cluster live: a brand-new empty
// node joins, converges through the replication mesh (snapshot path
// included — compaction is aggressive here), takes over a slice of the
// shard space, and serves writes for it.
func TestJoinAndAcquireColdNode(t *testing.T) {
	nodes := startCluster(t, 2, 4, store.Options{NoSync: true, SnapshotEvery: 4})

	users := make([]string, 16)
	for i := range users {
		users[i] = fmt.Sprintf("user-%02d", i)
		enrollRouted(t, nodes, users[i], fakeSamples(users[i], 4, float64(i)))
	}
	waitMeshConverged(t, nodes)

	// Fresh node, empty store, current map (which does not know it yet).
	replLn, ctrlLn := listen(t), listen(t)
	self := NodeInfo{ClientAddr: "client-addr-2", ReplAddr: replLn.Addr().String(), CtrlAddr: ctrlLn.Addr().String()}
	st := openStore(t, t.TempDir(), store.Options{Shards: 4, NoSync: true, SnapshotEvery: 4})
	seed, err := FetchMap(nodes[0].node.self.CtrlAddr, testKey, time.Second)
	if err != nil {
		t.Fatalf("FetchMap: %v", err)
	}
	n, err := NewNode(NodeConfig{
		Self: self, Map: seed, Store: st, Key: testKey,
		SealTimeout: 2 * time.Second, ReplListener: replLn, CtrlListener: ctrlLn,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	if err := n.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = n.Close() })

	if d, _ := n.RouteWrite(users[0]); d != transport.RouteRemote {
		t.Fatalf("pre-join decision = %v, want RouteRemote", d)
	}
	if err := n.Join(5 * time.Second); err != nil {
		t.Fatalf("Join: %v", err)
	}
	waitMapVersion(t, nodes[0].node, 2)

	// Take one shard from each founder.
	grab := []int{nodes[0].node.Map().OwnedBy(0)[0], nodes[0].node.Map().OwnedBy(1)[0]}
	if err := n.AcquireShards(grab, 15*time.Second); err != nil {
		t.Fatalf("AcquireShards: %v", err)
	}
	if owned, total := n.OwnedShards(); owned != 2 || total != 4 {
		t.Fatalf("joiner owns %d/%d, want 2/4", owned, total)
	}
	waitMapVersion(t, nodes[0].node, 3)
	waitMapVersion(t, nodes[1].node, 3)

	// The joiner serves writes for its shards and holds the full history.
	all := append(nodes, &testNode{st: st, node: n})
	for i, u := range users {
		enrollRouted(t, all, u, fakeSamples(u, 1, float64(200+i)))
	}
	waitMeshConverged(t, all)
	pop := st.Population()
	if len(pop) != len(users) {
		t.Fatalf("joiner population = %d users, want %d", len(pop), len(users))
	}
	for _, u := range users {
		if len(pop[u]) != 5 {
			t.Fatalf("joiner has %d windows for %s, want 5", len(pop[u]), u)
		}
	}
}

// TestHandoffUnderConcurrentWrites is the race hammer (run under -race
// by `make race-cluster`): writers enroll continuously while shards
// bounce between two nodes; every acknowledged write must survive on
// every node. A last leg kills the owner mid-traffic and has the other
// node take over.
func TestHandoffUnderConcurrentWrites(t *testing.T) {
	nodes := startCluster(t, 2, 4, store.Options{NoSync: true, SnapshotEvery: -1})

	const writers = 4
	const perWriter = 40
	var acked [writers]int
	var writersWG, bouncerWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				user := fmt.Sprintf("w%d-user-%02d", w, i)
				deadline := time.Now().Add(10 * time.Second)
				for {
					var target *testNode
					for _, tn := range nodes {
						if d, _ := tn.node.RouteWrite(user); d == transport.RouteLocal {
							target = tn
							break
						}
					}
					if target == nil {
						time.Sleep(time.Millisecond)
						if time.Now().After(deadline) {
							t.Errorf("writer %d: no owner for %s", w, user)
							return
						}
						continue
					}
					err := target.st.Enroll(user, fakeSamples(user, 1, float64(i)), false)
					if err == nil {
						acked[w]++
						break
					}
					if !errors.Is(err, store.ErrSealed) {
						t.Errorf("writer %d: enroll %s: %v", w, user, err)
						return
					}
					if time.Now().After(deadline) {
						t.Errorf("writer %d: %s sealed for too long", w, user)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}

	// Bounce ownership back and forth while the writers run: each round
	// one node takes everything the other owns.
	bouncerWG.Add(1)
	go func() {
		defer bouncerWG.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			to := nodes[round%2]
			take := to.node.Map().OwnedBy(1 - round%2)
			if len(take) > 0 {
				if err := to.node.AcquireShards(take, 10*time.Second); err != nil {
					t.Errorf("rebalance round %d: %v", round, err)
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	done := make(chan struct{})
	go func() { writersWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("writers did not finish in time")
	}
	close(stop)
	bouncerWG.Wait()
	waitMeshConverged(t, nodes)

	total := 0
	for w := 0; w < writers; w++ {
		total += acked[w]
	}
	if total != writers*perWriter {
		t.Fatalf("acked %d writes, want %d", total, writers*perWriter)
	}
	for i, tn := range nodes {
		pop := tn.st.Population()
		got := 0
		for _, samples := range pop {
			got += len(samples)
		}
		if got != total {
			t.Fatalf("node %d holds %d windows, want %d (no acked write may be lost)", i, got, total)
		}
	}

	// Takeover leg: routed writers keep running while the node that owns
	// every shard dies and the survivor takes over. A write the victim
	// acked in its last moments may not have shipped — the documented
	// limit — so the invariant is on what the survivor acked: every one of
	// those is in its store, on sequences that never skip or repeat.
	victim, survivor := nodes[0], nodes[1]
	if theirs := victim.node.Map().OwnedBy(1); len(theirs) > 0 {
		if err := victim.node.AcquireShards(theirs, 10*time.Second); err != nil {
			t.Fatalf("gather shards on the victim: %v", err)
		}
	}
	waitMapVersion(t, survivor.node, victim.node.Map().Version)
	var (
		ackedBySurvivor sync.Map // user -> struct{}
		survivorWrites  atomic.Int64
		victimWrites    atomic.Int64
		legWG           sync.WaitGroup
	)
	legStop := make(chan struct{})
	for w := 0; w < writers; w++ {
		legWG.Add(1)
		go func(w int) {
			defer legWG.Done()
			for i := 0; ; i++ {
				select {
				case <-legStop:
					return
				default:
				}
				user := fmt.Sprintf("t%d-user-%04d", w, i)
				deadline := time.Now().Add(10 * time.Second)
				for {
					// A closed store is the dead victim refusing connections:
					// a routed client moves on to whoever else claims the shard.
					var err error = store.ErrClosed
					for _, tn := range nodes {
						if d, _ := tn.node.RouteWrite(user); d != transport.RouteLocal {
							continue
						}
						err = tn.st.Enroll(user, fakeSamples(user, 1, float64(i)), false)
						if errors.Is(err, store.ErrClosed) {
							continue
						}
						if err == nil && tn == survivor {
							ackedBySurvivor.Store(user, struct{}{})
							survivorWrites.Add(1)
						} else if err == nil {
							victimWrites.Add(1)
						}
						break
					}
					if err == nil {
						break
					}
					if !errors.Is(err, store.ErrClosed) {
						t.Errorf("writer %d: enroll %s: %v", w, user, err)
						return
					}
					if time.Now().After(deadline) {
						t.Errorf("writer %d: no live owner for %s", w, user)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	// The victim dies mid-traffic, and traffic goes on well past the
	// takeover.
	waitCount := func(n *atomic.Int64, want int64, what string) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); n.Load() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				close(legStop)
				t.Fatalf("%s: %d writes, want %d", what, n.Load(), want)
			}
		}
	}
	waitCount(&victimWrites, writers*perWriter/4, "victim before the kill")
	_ = victim.node.Close()
	_ = victim.st.Close()
	if err := survivor.node.TakeOver(time.Second); err != nil {
		close(legStop)
		t.Fatalf("TakeOver: %v", err)
	}
	waitCount(&survivorWrites, writers*perWriter/4, "survivor after the takeover")
	close(legStop)
	legWG.Wait()
	pop := survivor.st.Population()
	survived := 0
	ackedBySurvivor.Range(func(user, _ any) bool {
		survived++
		if len(pop[user.(string)]) != 1 {
			t.Errorf("%s: acked by the survivor after takeover, %d windows in its store", user, len(pop[user.(string)]))
		}
		return true
	})
	if int64(survived) != survivorWrites.Load() {
		t.Fatalf("survivor acked %d writes for %d distinct users", survivorWrites.Load(), survived)
	}
	for shard, last := range survivor.st.ShardLastSeqs() {
		recs, err := survivor.st.ShardRecordsSince(shard, 0)
		if err != nil {
			t.Fatalf("shard %d log: %v", shard, err)
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Fatalf("shard %d record %d has sequence %d: not strictly increasing across takeover", shard, i, r.Seq)
			}
		}
		if uint64(len(recs)) != last {
			t.Fatalf("shard %d log holds %d records, cursor says %d", shard, len(recs), last)
		}
	}
}

// TestShardMapCodecRoundTrip pins the binary map codec.
func TestShardMapCodecRoundTrip(t *testing.T) {
	m := &ShardMap{
		Version: 42,
		Nodes: []NodeInfo{
			{ClientAddr: "10.0.0.1:7001", ReplAddr: "10.0.0.1:7002", CtrlAddr: "10.0.0.1:7003"},
			{ClientAddr: "10.0.0.2:7001", ReplAddr: "10.0.0.2:7002", CtrlAddr: "10.0.0.2:7003"},
		},
		Owner: []int32{0, 1, 1, 0, 1},
	}
	enc := m.AppendBinary(nil)
	got, err := DecodeShardMap(enc)
	if err != nil {
		t.Fatalf("DecodeShardMap: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
	// Corruption in any byte must be detected.
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := DecodeShardMap(bad); err == nil {
			t.Fatalf("flipped byte %d decoded cleanly", i)
		}
	}
	if _, err := DecodeShardMap(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated map decoded cleanly")
	}
}

// TestCtrlFramesAuthenticated pins that control frames reject bad MACs
// and decode cleanly with good ones.
func TestCtrlFramesAuthenticated(t *testing.T) {
	var sent bytes.Buffer
	if err := writeCtrl(newCtrlConn(&sent, testKey), encodeSealRequest(sealRequest{shard: 3})); err != nil {
		t.Fatalf("writeCtrl: %v", err)
	}
	frame := sent.Bytes()
	read := func(key, frame []byte) (byte, []byte, error) {
		return newCtrlConn(bytes.NewBuffer(frame), key).Read(ctrlNames)
	}
	tb, payload, err := read(testKey, frame)
	if err != nil || tb != ctrlSeal {
		t.Fatalf("read: type %#x, %v", tb, err)
	}
	req, err := decodeSealRequest(payload)
	if err != nil || req.shard != 3 {
		t.Fatalf("decodeSealRequest = %+v, %v", req, err)
	}
	if _, _, err := read([]byte("wrong-key"), frame); !errors.Is(err, wire.ErrBadMAC) {
		t.Fatalf("wrong key: %v, want a MAC failure", err)
	}
	for i := 4; i < len(frame); i++ {
		tampered := append([]byte(nil), frame...)
		tampered[i] ^= 1
		if _, _, err := read(testKey, tampered); err == nil {
			t.Fatalf("frame with byte %d flipped accepted", i)
		}
	}
}
