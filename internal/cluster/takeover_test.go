package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"smarteryou/internal/store"
	"smarteryou/internal/transport"
)

func plainClient(t testing.TB, addr string) *transport.Client {
	t.Helper()
	c, err := transport.NewClient(transport.ClientConfig{Addr: addr, Key: testKey, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("NewClient(%s): %v", addr, err)
	}
	return c
}

func meshOf(servers ...*clusterServer) []*testNode {
	mesh := make([]*testNode, len(servers))
	for i, cs := range servers {
		mesh[i] = &testNode{st: cs.st, node: cs.node}
	}
	return mesh
}

// waitStats polls a node's stats response until ok accepts it.
func waitStats(t testing.TB, c *transport.Client, what string, ok func(transport.ServerStats) bool) transport.ServerStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err := c.FullStats()
		if err != nil {
			t.Fatalf("FullStats: %v", err)
		}
		if ok(stats) {
			return stats
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: stats.replication stuck at %+v", what, stats.Replication)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLeaderFollowerFailover is the end-to-end acceptance path of the
// one-owner cluster: the owner serves enrollments and a trained model, a
// replica that owns nothing converges to the same per-shard sequences and
// serves authenticate and fetch-model while redirecting writes to the
// owner, and after the owner dies the replica takes its shards over and
// accepts new enrollments with monotonically continuing sequences.
func TestLeaderFollowerFailover(t *testing.T) {
	_, byUser := buildFixture(t)
	servers := startServedClusterOwnedBy(t, 2, 2, store.Options{ReplicaNoSync: true}, nil, 0)
	owner, replica := servers[0], servers[1]

	ownerClient := plainClient(t, owner.addr)
	for id, samples := range byUser {
		if _, err := ownerClient.Enroll(id, samples); err != nil {
			t.Fatalf("Enroll %s: %v", id, err)
		}
	}
	if _, version, err := ownerClient.TrainVersioned("user-00", transport.TrainParams{Seed: 1}); err != nil {
		t.Fatalf("TrainVersioned: %v", err)
	} else if version != 1 {
		t.Fatalf("trained version %d, want 1", version)
	}

	waitMeshConverged(t, meshOf(owner, replica))
	if !reflect.DeepEqual(owner.st.Population(), replica.st.Population()) {
		t.Fatalf("populations diverged after convergence")
	}

	// The owner's stats show the replica's progress: lag drains to zero.
	replicaClient := plainClient(t, replica.addr)
	waitStats(t, ownerClient, "owner sees the replica drain", func(s transport.ServerStats) bool {
		r := s.Replication
		return r != nil && r.Role == "owner" && len(r.Followers) == 1 && r.Followers[0].Lag == 0
	})
	waitStats(t, replicaClient, "replica reports its stream", func(s transport.ServerStats) bool {
		r := s.Replication
		return r != nil && r.Role == "replica" && r.Connected
	})

	// The replica serves reads and bounces writes to the owner.
	if bundle, version, err := replicaClient.FetchModel("user-00", 0); err != nil {
		t.Fatalf("replica FetchModel: %v", err)
	} else if version != 1 || bundle == nil {
		t.Fatalf("replica served model version %d (bundle nil: %v), want 1", version, bundle == nil)
	}
	ownerDec, err := ownerClient.Authenticate("user-00", byUser["user-00"][0])
	if err != nil {
		t.Fatalf("owner Authenticate: %v", err)
	}
	replicaDec, err := replicaClient.Authenticate("user-00", byUser["user-00"][0])
	if err != nil {
		t.Fatalf("replica Authenticate: %v", err)
	}
	if !reflect.DeepEqual(ownerDec, replicaDec) {
		t.Fatalf("authenticate decisions diverged: owner %+v replica %+v", ownerDec, replicaDec)
	}
	var redirect *transport.RedirectError
	if _, err := replicaClient.Enroll("user-00", byUser["user-00"][:1]); !errors.As(err, &redirect) {
		t.Fatalf("replica enroll err = %v, want RedirectError", err)
	} else if redirect.Leader != owner.addr {
		t.Fatalf("redirect to %q, want %q (the owner in the map)", redirect.Leader, owner.addr)
	}

	// Kill the owner, take over on the replica, and keep writing: sequence
	// numbers must continue each shard's space monotonically.
	before := replica.st.ShardLastSeqs()
	owner.kill()
	if err := replica.node.TakeOver(time.Second); err != nil {
		t.Fatalf("TakeOver: %v", err)
	}
	waitStats(t, replicaClient, "replica became the owner", func(s transport.ServerStats) bool {
		r := s.Replication
		return r != nil && r.Role == "owner" && !r.Connected
	})

	for i := 0; i < 6; i++ {
		if _, err := replicaClient.Enroll("user-new", fakeSamples("user-new", 2, float64(i))); err != nil {
			t.Fatalf("enroll %d after takeover: %v", i, err)
		}
	}
	after := replica.st.ShardLastSeqs()
	var grew bool
	for i := range after {
		if after[i] < before[i] {
			t.Fatalf("shard %d sequence went backwards: %d -> %d", i, before[i], after[i])
		}
		if after[i] > before[i] {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("enrollments after takeover did not advance any shard cursor: %v -> %v", before, after)
	}
	if _, version, err := replicaClient.TrainVersioned("user-00", transport.TrainParams{Seed: 1}); err != nil {
		t.Fatalf("TrainVersioned after takeover: %v", err)
	} else if version != 2 {
		t.Fatalf("train after takeover published version %d, want 2 (registry continued)", version)
	}
}

// TestTakeOverDeadOwner pins the takeover verb: refused while the owner
// answers, a Version+1 map owning everything once it does not, no
// converged write lost, sequences continuing, and a restarted ex-owner
// that adopts the new map redirects writes to the node that took over.
func TestTakeOverDeadOwner(t *testing.T) {
	_, byUser := buildFixture(t)
	const shards = 4
	opt := store.Options{ReplicaNoSync: true, SnapshotEvery: -1}
	servers := startServedClusterOwnedBy(t, 2, shards, opt, nil, 0)
	owner, survivor := servers[0], servers[1]

	ownerClient := plainClient(t, owner.addr)
	for id, samples := range byUser {
		if _, err := ownerClient.Enroll(id, samples); err != nil {
			t.Fatalf("Enroll %s: %v", id, err)
		}
	}
	if _, _, err := ownerClient.TrainVersioned("user-00", transport.TrainParams{Seed: 1}); err != nil {
		t.Fatalf("TrainVersioned: %v", err)
	}
	waitMeshConverged(t, meshOf(owner, survivor))
	acked := owner.st.Population()
	oldMap := owner.node.Map()

	// (a) The owner answers: a takeover must not turn into a forced claim.
	if err := survivor.node.TakeOver(time.Second); err == nil {
		t.Fatal("TakeOver succeeded against a live owner")
	}
	if v := survivor.node.Map().Version; v != oldMap.Version {
		t.Fatalf("refused takeover moved the map to v%d", v)
	}
	if owned, _ := survivor.node.OwnedShards(); owned != 0 {
		t.Fatalf("refused takeover left the survivor owning %d shards", owned)
	}

	// (b) The owner is dead: the survivor claims everything.
	owner.kill()
	if err := survivor.node.TakeOver(time.Second); err != nil {
		t.Fatalf("TakeOver: %v", err)
	}
	if v := survivor.node.Map().Version; v != oldMap.Version+1 {
		t.Fatalf("map v%d after takeover, want v%d", v, oldMap.Version+1)
	}
	if owned, total := survivor.node.OwnedShards(); owned != shards || total != shards {
		t.Fatalf("survivor owns %d/%d shards after takeover, want all", owned, total)
	}
	if !reflect.DeepEqual(survivor.st.Population(), acked) {
		t.Fatal("an enroll acked before the kill is missing on the survivor")
	}
	survivorClient := plainClient(t, survivor.addr)
	newUser := "user-after-takeover"
	shard := store.ShardIndex(transport.AnonymizeUser(newUser), shards)
	before := survivor.st.ShardLastSeqs()[shard]
	if _, err := survivorClient.Enroll(newUser, fakeSamples(newUser, 2, 1)); err != nil {
		t.Fatalf("enroll after takeover: %v", err)
	}
	if after := survivor.st.ShardLastSeqs()[shard]; after != before+1 {
		t.Fatalf("shard %d cursor %d -> %d across takeover, want the sequence to continue at %d", shard, before, after, before+1)
	}

	// (c) The ex-owner restarts from its data dir still believing the old
	// map; once it adopts the survivor's it is a replica like any other.
	st := openStore(t, owner.dir, store.Options{Shards: shards, ReplicaNoSync: true, SnapshotEvery: -1})
	node, err := NewNode(NodeConfig{Self: owner.node.self, Map: oldMap, Store: st, Key: testKey})
	if err != nil {
		t.Fatalf("NewNode(restarted): %v", err)
	}
	if err := node.Start(); err != nil {
		t.Fatalf("Start(restarted): %v", err)
	}
	t.Cleanup(func() { _ = node.Close() })
	det, _ := buildFixture(t)
	srv, err := transport.NewServer(transport.ServerConfig{Key: testKey, Detector: det, Store: st, Router: node})
	if err != nil {
		t.Fatalf("NewServer(restarted): %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start server(restarted): %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	fetched, err := FetchMap(survivor.node.self.CtrlAddr, testKey, time.Second)
	if err != nil {
		t.Fatalf("FetchMap: %v", err)
	}
	if !node.installMap(fetched) {
		t.Fatalf("restarted ex-owner refused map v%d over its v%d", fetched.Version, oldMap.Version)
	}
	var redirect *transport.RedirectError
	if _, err := plainClient(t, addr.String()).Enroll(newUser, fakeSamples(newUser, 1, 2)); !errors.As(err, &redirect) {
		t.Fatalf("enroll at restarted ex-owner: %v, want RedirectError", err)
	} else if redirect.Leader != survivor.addr {
		t.Fatalf("redirect to %q, want the survivor %q", redirect.Leader, survivor.addr)
	}
	waitMeshConverged(t, []*testNode{{st: st, node: node}, {st: survivor.st, node: survivor.node}})
}

// TestReplicationInfoCountsOwnedShards pins the lag an operator reads
// before a takeover: with ownership split, each node's view of its peer
// covers only the shards it forwards, so a converged mesh reads zero on
// both sides however far the peer's own shards have advanced.
func TestReplicationInfoCountsOwnedShards(t *testing.T) {
	nodes := startCluster(t, 2, 4, store.Options{NoSync: true, SnapshotEvery: -1})
	for i := 0; i < 16; i++ {
		user := fmt.Sprintf("user-%02d", i)
		enrollRouted(t, nodes, user, fakeSamples(user, 2, float64(i)))
	}
	waitMeshConverged(t, nodes)
	for i, tn := range nodes {
		deadline := time.Now().Add(5 * time.Second)
		for {
			info := tn.node.ReplicationInfo()
			if info.Role == "owner" && info.Connected && len(info.Followers) == 1 && info.Followers[0].Lag == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d replication info stuck at %+v", i, info)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
