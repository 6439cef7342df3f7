// Command authserver runs the cloud Authentication Server (Fig. 1): it
// trains a user-agnostic context-detection model at startup, optionally
// seeds an anonymized population, and then serves enrollment, model
// training and model download over TCP.
//
// With -data-dir, the population store and the trained-model registry are
// durable: every enrollment is written to a checksummed write-ahead log
// before it is acknowledged, state is periodically compacted (in the
// background, off the enroll path) into atomically-replaced snapshots,
// and a restarted server recovers its full population and model registry
// — no user re-enrolls. -shards partitions the store by user hash into
// independent WAL+snapshot shards so enroll throughput scales with cores;
// -keep-models bounds each user's registry history. Without -data-dir the
// server runs the same store, un-fsynced, in a temporary directory that it
// names at startup and removes at shutdown: every request works, nothing
// survives a restart.
//
// On the wire the server speaks one format, the binary envelope; a frame
// in any other format (a JSON envelope included) closes the connection.
// Besides the single authenticate request there are two hot-path shapes:
// batched authentication (many windows for one user in one envelope, one
// HMAC verification and one model resolution) and streaming sessions
// (handshake once, then raw CRC-tailed window frames in and decision
// frames out). Server stats report per-shape traffic counters.
//
// On disk likewise: the store reads only what it writes (snapshot.cas plus
// a binary WAL in each shard-NNNN directory, shard-0000 alone with the
// default -shards 1). A -data-dir written in an earlier format or layout
// is refused at startup, untouched, with an error naming the offending
// file; see the README's "Upgrading a data directory".
//
// The server runs in one of two modes. Without -cluster-peers it is a
// single server. With -cluster-peers it is one node of a shard-ownership
// cluster — the only replicated topology: each node is the write owner of
// a subset of the store's FNV shards and replicates every shard to its
// peers over a full mesh, so any node serves reads (authenticate,
// fetch-model, stats) for the whole population.
//
//   - Every node runs with a -cluster-peers list: comma-separated
//     client/repl/ctrl address triples, one per node, in a canonical
//     order shared by the whole cluster. -cluster-ctrl names this node's
//     own control address, identifying it inside the list.
//   - At startup the node adopts the live cluster map from any answering
//     peer (joining it, owning nothing, if absent) and falls back to the
//     balanced founding map over its peer list when no peer is up yet, so
//     the same command line cold-starts a cluster and rejoins a running
//     one.
//   - With -owned-shards, the node takes the listed shards from their
//     current owners at startup with a live handoff (seal, converge over
//     the mesh, publish the new map) — no acked write is lost.
//   - SIGHUP is the dead-owner takeover: the node probes every other
//     owner's control endpoint and claims the shards of those that do not
//     answer. It refuses while every owner answers. Issue it on one
//     survivor, and only when the owner's process is gone for good.
//
// A primary with a read replica is the cluster in which one node owns
// every shard: start the primary with itself as the only peer, the
// replica with the primary and itself (it adopts the primary's map and
// joins owning nothing); SIGHUP on the replica promotes it once the
// primary is dead; a former replica's -data-dir starts as the primary by
// listing itself as the only peer.
//
// Writes for shards a node does not own answer with a redirect to the
// owner; clients with RouteByShard cache the versioned shard map and go
// straight to the right node. Server stats carry the node's replication
// role, per-shard cursors and every peer's lag.
//
// -retrain enables autonomous drift-triggered retraining (the paper's
// Fig. 7 loop, server side): every served authenticate decision updates a
// per-user confidence EWMA, and users that sink below -retrain-threshold
// are retrained through a coalesced, budgeted scheduler — no client or
// operator action. Drift state checkpoints into the store registry, so with
// -data-dir restarts resume with the accumulated drift. A cluster node
// observes drift for every user it authenticates but schedules retrains
// only for users whose shard it owns.
//
// Usage:
//
//	authserver -addr 127.0.0.1:7600 -key secret [-seed-users 10] \
//	    [-data-dir /var/lib/smarteryou] [-shards 8] [-keep-models 16] \
//	    [-cluster-peers host1:7600/host1:7700/host1:7800,host2:7600/host2:7700/host2:7800] \
//	    [-cluster-ctrl host1:7800] [-owned-shards 0,2,4] \
//	    [-retrain] [-retrain-threshold 0.2] [-retrain-budget 2] \
//	    [-retrain-cooldown 30m] [-retrain-recent 400]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smarteryou"
	"smarteryou/internal/dsp"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", "127.0.0.1:7600", "listen address")
		key          = flag.String("key", "", "pre-shared HMAC key (required)")
		seedUsers    = flag.Int("seed-users", 10, "synthetic users to seed the population store and train the context detector")
		seed         = flag.Int64("seed", 1, "synthetic data seed")
		dataDir      = flag.String("data-dir", "", "directory for the durable population store and model registry (empty: an ephemeral store in a temporary directory, removed at shutdown)")
		shards       = flag.Int("shards", 1, "independent WAL+snapshot shards in the durable store, one shard-NNNN directory each (fixed at store creation; reopening uses the on-disk count)")
		keepModels   = flag.Int("keep-models", 0, "model versions retained per user in the registry (0: unbounded)")
		trainWorkers = flag.Int("train-workers", 0, "concurrent model-training jobs (0: GOMAXPROCS); excess requests queue up to twice this, then get a busy response")

		clusterPeers = flag.String("cluster-peers", "", "comma-separated client/repl/ctrl address triples of every cluster node, in an order shared by the whole cluster (enables shard-ownership cluster mode, SIGHUP takes over a dead owner's shards; requires -data-dir)")
		clusterCtrl  = flag.String("cluster-ctrl", "", "this node's control-endpoint address, identifying it inside -cluster-peers")
		ownedShards  = flag.String("owned-shards", "", "comma-separated shard indexes this node should own; missing ones are taken from their owners with a live handoff at startup (default: the auto-balanced share)")

		retrainOn        = flag.Bool("retrain", false, "enable autonomous drift-triggered retraining from served authenticate decisions")
		retrainThreshold = flag.Float64("retrain-threshold", 0.2, "confidence-EWMA level below which a user becomes a retrain candidate (the paper's epsilon_CS)")
		retrainBudget    = flag.Int("retrain-budget", 2, "scheduled retrains allowed to run concurrently")
		retrainCooldown  = flag.Duration("retrain-cooldown", 30*time.Minute, "minimum gap between scheduled retrains of the same user")
		retrainRecent    = flag.Int("retrain-recent", 400, "newest stored windows per context a scheduled retrain trains on")

		storeScrub       = flag.Bool("store-scrub", false, "offline mode: verify the -data-dir store's content-addressed chunks (hashes, references), report orphans and damage, then exit")
		storeScrubRemove = flag.Bool("store-scrub-remove", false, "with -store-scrub, delete orphaned chunks instead of only reporting them")
	)
	flag.Parse()
	if *storeScrub || *storeScrubRemove {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "authserver: -store-scrub needs -data-dir")
			return 2
		}
		return runScrub(*dataDir, *shards, *keepModels, *storeScrubRemove)
	}
	if *key == "" {
		fmt.Fprintln(os.Stderr, "authserver: -key is required")
		return 2
	}
	if *seedUsers < 2 {
		fmt.Fprintln(os.Stderr, "authserver: -seed-users must be at least 2")
		return 2
	}
	if *clusterPeers != "" && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "authserver: cluster mode needs -data-dir (the WAL is the mesh replication log)")
		return 2
	}
	if *clusterPeers == "" && (*clusterCtrl != "" || *ownedShards != "") {
		fmt.Fprintln(os.Stderr, "authserver: -cluster-ctrl and -owned-shards need -cluster-peers")
		return 2
	}
	var retrainCfg *smarteryou.ServerRetrainConfig
	if *retrainOn {
		retrainCfg = &smarteryou.ServerRetrainConfig{
			Threshold:     *retrainThreshold,
			Budget:        *retrainBudget,
			Cooldown:      *retrainCooldown,
			RecentWindows: *retrainRecent,
		}
		log.Printf("drift retraining enabled: threshold %.2f, budget %d, cooldown %s, recent %d windows per context",
			*retrainThreshold, *retrainBudget, *retrainCooldown, *retrainRecent)
	}

	if *clusterPeers != "" {
		return runCluster(clusterSettings{
			addr: *addr, key: *key, peers: *clusterPeers, ctrl: *clusterCtrl,
			owned: *ownedShards, dataDir: *dataDir,
			shards: *shards, keepModels: *keepModels, trainWorkers: *trainWorkers,
			seedUsers: *seedUsers, seed: *seed, retrain: retrainCfg,
		})
	}

	// Without -data-dir the store lives in a temporary directory removed
	// once run returns — after shutdown has closed the store — and skips
	// fsync: nothing in it has to survive the process.
	dir, ephemeral := *dataDir, *dataDir == ""
	if ephemeral {
		var err error
		if dir, err = os.MkdirTemp("", "smarteryou-*"); err != nil {
			log.Print(err)
			return 1
		}
		defer func() {
			if err := os.RemoveAll(dir); err != nil {
				log.Printf("remove ephemeral store: %v", err)
			}
		}()
		log.Printf("no -data-dir: ephemeral store in %s, removed at shutdown", dir)
	}
	store, err := smarteryou.OpenStore(dir, smarteryou.StoreOptions{
		Shards:            *shards,
		KeepModelVersions: *keepModels,
		NoSync:            ephemeral,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	if !ephemeral {
		st := store.Stats()
		log.Printf("durable store %s: %d shards, recovered %d users, %d windows, %d model versions (replayed %d wal records, dropped %d torn bytes)",
			dir, len(st.Shards), st.Users, st.Windows, len(st.ModelVersions), st.Recovery.Replayed, st.Recovery.TruncatedBytes)
	}

	detector, population, err := bootstrapDetector(store, *seedUsers, *seed, true)
	if err != nil {
		log.Print(err)
		return 1
	}
	server, err := smarteryou.NewAuthServer(smarteryou.AuthServerConfig{
		Key:          []byte(*key),
		Detector:     detector,
		Logf:         log.Printf,
		Store:        store,
		TrainWorkers: *trainWorkers,
		Retrain:      retrainCfg,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	if err := server.SeedPopulation(population); err != nil {
		log.Print(err)
		return 1
	}
	bound, err := server.Start(*addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	log.Printf("authentication server listening on %s (population: %d users)", bound, store.Stats().Users)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	return shutdown(server, nil, store)
}

// bootstrapDetector resolves the context detector both modes serve: the
// one recovered from the store's registry, else one trained from the
// synthetic corpus — deterministic in (seedUsers, seed), so every cluster
// node started with the same flags trains the identical detector — and
// published to the registry when publish is set. It also returns the
// corpus population to seed while the store holds no users yet; nil once
// it does, because a recovered store already holds (possibly real)
// enrollments and reseeding would append duplicates on every restart.
// When both are recovered the corpus generation is skipped entirely.
// Only ErrNoModel means no detector was ever published: a registry that
// cannot be read is an error, never a reason to train a different detector
// and publish it over the damaged one.
func bootstrapDetector(store *smarteryou.PopulationStore, seedUsers int, seed int64, publish bool) (*smarteryou.Detector, map[string][]smarteryou.WindowSample, error) {
	detector, err := store.LatestDetector()
	switch {
	case err == nil:
		log.Printf("loaded context detector from registry")
	case !errors.Is(err, smarteryou.ErrNoModel):
		return nil, nil, fmt.Errorf("context detector in the model registry is unreadable (authserver -store-scrub reports damaged chunks): %w", err)
	}
	needSeed := store.Stats().Users == 0
	if detector != nil && !needSeed {
		log.Printf("skipping corpus generation: detector and population recovered from store")
		return detector, nil, nil
	}
	log.Printf("generating %d-user context-training corpus...", seedUsers)
	population, ctxTrain, err := synthesizeCorpus(seedUsers, seed)
	if err != nil {
		return nil, nil, err
	}
	// A window length off the 5-smooth fast path shows here as Bluestein
	// plans.
	calls, plans := dsp.Counts()
	log.Printf("corpus: %d windows from %d dsp engine calls, %d Bluestein plans", len(ctxTrain), calls, plans)
	if detector == nil {
		detector, err = smarteryou.TrainContextDetector(
			smarteryou.ContextTrainingData(ctxTrain), smarteryou.DetectorConfig{Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		if publish {
			if err := store.PublishDetector(detector); err != nil {
				return nil, nil, err
			}
			log.Printf("published context detector to registry")
		}
	}
	if !needSeed {
		log.Printf("skipping synthetic seed: store already populated")
		population = nil
	}
	return detector, population, nil
}

// shutdown closes the server, then the cluster node (nil outside cluster
// mode), then the store and returns the exit code.
// The store outlives the server so in-flight requests can still append;
// it is flushed and closed only once the listener has drained.
func shutdown(server *smarteryou.AuthServer, node *smarteryou.ClusterNode, store *smarteryou.PopulationStore) int {
	log.Print("shutting down")
	code := 0
	if err := server.Close(); err != nil {
		log.Printf("close: %v", err)
		code = 1
	}
	if node != nil {
		if err := node.Close(); err != nil {
			log.Printf("close cluster node: %v", err)
			code = 1
		}
	}
	if err := store.Close(); err != nil {
		log.Printf("close store: %v", err)
		code = 1
	}
	log.Printf("durable store flushed")
	return code
}

// clusterSettings carries the flag values of the shard-ownership
// cluster mode.
type clusterSettings struct {
	addr, key, peers, ctrl, owned, dataDir string
	shards, keepModels, trainWorkers       int
	seedUsers                              int
	seed                                   int64
	retrain                                *smarteryou.ServerRetrainConfig
}

// runCluster runs one node of the shard-ownership cluster: replication
// leader for the shards it owns, mesh follower of every peer, serving
// reads for the whole population and redirecting writes it does not
// own — all of them, while it owns nothing. The node listens on its own
// triple from -cluster-peers (-addr is ignored; the triple is the one
// source of addresses). SIGHUP takes over the shards of dead owners.
func runCluster(cfg clusterSettings) int {
	infos, selfIdx, err := parseClusterPeers(cfg.peers, cfg.ctrl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "authserver: %v\n", err)
		return 2
	}
	self := infos[selfIdx]
	want, err := parseShardList(cfg.owned)
	if err != nil {
		fmt.Fprintf(os.Stderr, "authserver: -owned-shards: %v\n", err)
		return 2
	}

	// A cluster store skips the per-record fsync for mesh copies: the
	// shard owner is durable before acking, and a handoff re-syncs the
	// shard before ownership moves.
	store, err := smarteryou.OpenStore(cfg.dataDir, smarteryou.StoreOptions{
		Shards:            cfg.shards,
		KeepModelVersions: cfg.keepModels,
		ReplicaNoSync:     true,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	st := store.Stats()
	log.Printf("durable store %s: %d shards, recovered %d users, %d windows",
		cfg.dataDir, len(st.Shards), st.Users, st.Windows)

	// Bootstrap map: adopt the live cluster's map from any answering
	// peer; found the cluster on the balanced map when nobody is up yet
	// (every founding node derives the same one from the shared peer
	// list).
	var m *smarteryou.ClusterShardMap
	for i, info := range infos {
		if i == selfIdx {
			continue
		}
		fetched, err := smarteryou.FetchClusterMap(info.CtrlAddr, []byte(cfg.key), 2*time.Second)
		if err != nil {
			continue
		}
		if m == nil || fetched.Version > m.Version {
			m = fetched
		}
	}
	if m != nil {
		log.Printf("adopted cluster map v%d from a peer", m.Version)
	} else {
		m, err = smarteryou.BalancedShardMap(infos, store.ShardCount())
		if err != nil {
			log.Print(err)
			return 1
		}
		log.Printf("no peer answered; founding on the balanced map (%d shards over %d nodes)", m.Shards(), len(infos))
		if m.Shards() < len(infos) {
			log.Printf("warning: %d shards over %d founding nodes leaves nodes with no writable share; create the store with -shards >= node count", m.Shards(), len(infos))
		}
	}

	// Only the node owning the detector's registry shard publishes it;
	// the record reaches everyone else over the mesh.
	selfInMap := mapIndexOf(m, self.CtrlAddr)
	detShard := m.ShardForUser(smarteryou.DetectorRegistryKey)
	detector, population, err := bootstrapDetector(store, cfg.seedUsers, cfg.seed,
		selfInMap >= 0 && m.OwnerOf(detShard) == selfInMap)
	if err != nil {
		log.Print(err)
		return 1
	}

	node, err := smarteryou.NewClusterNode(smarteryou.ClusterNodeConfig{
		Self:  self,
		Map:   m,
		Store: store,
		Key:   []byte(cfg.key),
		Logf:  log.Printf,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	server, err := smarteryou.NewAuthServer(smarteryou.AuthServerConfig{
		Key:             []byte(cfg.key),
		Detector:        detector,
		Logf:            log.Printf,
		Store:           store,
		TrainWorkers:    cfg.trainWorkers,
		Retrain:         cfg.retrain,
		Router:          node,
		ReplicationInfo: node.ReplicationInfo,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	// Seed only the users whose shards this node owns: every node runs
	// the same flags, derives the same corpus, and contributes exactly
	// its share — the mesh converges the full population everywhere.
	if population != nil {
		mine := make(map[string][]smarteryou.WindowSample)
		for id, samples := range population {
			if selfInMap >= 0 && m.OwnerOf(m.ShardForUser(smarteryou.AnonymizeUser(id))) == selfInMap {
				mine[id] = samples
			}
		}
		if err := server.SeedPopulation(mine); err != nil {
			log.Print(err)
			return 1
		}
		log.Printf("seeded %d of %d synthetic users (this node's shards)", len(mine), len(population))
	}

	if err := node.Start(); err != nil {
		log.Print(err)
		return 1
	}
	bound, err := server.Start(self.ClientAddr)
	if err != nil {
		log.Print(err)
		return 1
	}
	if mapIndexOf(node.Map(), self.CtrlAddr) < 0 {
		if err := node.Join(30 * time.Second); err != nil {
			log.Printf("join cluster: %v", err)
			return 1
		}
		log.Printf("joined the cluster: map now v%d", node.Map().Version)
	}
	if len(want) > 0 {
		// Peers may still be booting in a cold cluster start; keep
		// retrying the handoff until they answer. Each attempt stays
		// under the owners' seal timeout so a failed round unseals.
		deadline := time.Now().Add(60 * time.Second)
		for {
			if err = node.AcquireShards(want, 8*time.Second); err == nil {
				break
			}
			if time.Now().After(deadline) {
				log.Printf("acquire -owned-shards: %v", err)
				return 1
			}
			log.Printf("shard handoff not ready (%v); retrying", err)
			time.Sleep(time.Second)
		}
	}
	owned, total := node.OwnedShards()
	log.Printf("cluster node listening on %s: map v%d, owning %d of %d shards %v",
		bound, node.Map().Version, owned, total, node.Map().OwnedBy(mapIndexOf(node.Map(), self.CtrlAddr)))

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for sig := <-stop; sig == syscall.SIGHUP; sig = <-stop {
		// Operator-triggered, like every ownership change: the node never
		// decides on its own that a peer is dead.
		if err := node.TakeOver(0); err != nil {
			log.Printf("SIGHUP: %v", err)
			continue
		}
		owned, total := node.OwnedShards()
		log.Printf("SIGHUP: takeover complete: map v%d, owning %d of %d shards at cursors %v",
			node.Map().Version, owned, total, store.ShardLastSeqs())
	}
	return shutdown(server, node, store)
}

// parseClusterPeers parses the -cluster-peers triples and locates this
// node in them by its -cluster-ctrl address.
func parseClusterPeers(list, ctrl string) ([]smarteryou.ClusterNodeInfo, int, error) {
	if ctrl == "" {
		return nil, 0, fmt.Errorf("-cluster-peers needs -cluster-ctrl to identify this node")
	}
	self := -1
	var infos []smarteryou.ClusterNodeInfo
	for _, ent := range strings.Split(list, ",") {
		parts := strings.Split(strings.TrimSpace(ent), "/")
		if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
			return nil, 0, fmt.Errorf("-cluster-peers entry %q: want a client/repl/ctrl address triple", strings.TrimSpace(ent))
		}
		info := smarteryou.ClusterNodeInfo{ClientAddr: parts[0], ReplAddr: parts[1], CtrlAddr: parts[2]}
		if info.CtrlAddr == ctrl {
			if self >= 0 {
				return nil, 0, fmt.Errorf("-cluster-peers lists control address %s twice", ctrl)
			}
			self = len(infos)
		}
		infos = append(infos, info)
	}
	if self < 0 {
		return nil, 0, fmt.Errorf("-cluster-ctrl %s does not appear in -cluster-peers", ctrl)
	}
	return infos, self, nil
}

// parseShardList parses the -owned-shards indexes (range checking is the
// handoff's job — it knows the map).
func parseShardList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad shard index %q", strings.TrimSpace(f))
		}
		out = append(out, n)
	}
	return out, nil
}

// mapIndexOf locates a node in a shard map by control address (-1: not
// a member).
func mapIndexOf(m *smarteryou.ClusterShardMap, ctrlAddr string) int {
	for i, n := range m.Nodes {
		if n.CtrlAddr == ctrlAddr {
			return i
		}
	}
	return -1
}

// synthesizeCorpus generates the synthetic seed population and the
// pooled context-training windows. Generation is deterministic in
// (seedUsers, seed), so every cluster node started with the same flags
// derives the identical corpus — and from it, the identical detector.
func synthesizeCorpus(seedUsers int, seed int64) (map[string][]smarteryou.WindowSample, []smarteryou.WindowSample, error) {
	pop, err := smarteryou.NewPopulation(seedUsers, seed)
	if err != nil {
		return nil, nil, err
	}
	population := make(map[string][]smarteryou.WindowSample, seedUsers)
	var ctxTrain []smarteryou.WindowSample
	for i, u := range pop.Users {
		samples, err := smarteryou.Collect(u, smarteryou.CollectOptions{
			WindowSeconds:  6,
			SessionSeconds: 120,
			Sessions:       2,
			Contexts: []smarteryou.Context{
				smarteryou.ContextStationaryUse, smarteryou.ContextMovingUse,
				smarteryou.ContextPhoneOnTable, smarteryou.ContextOnVehicle,
			},
			Seed: seed + int64(i)*17,
		})
		if err != nil {
			return nil, nil, err
		}
		population[u.ID] = samples
		ctxTrain = append(ctxTrain, samples...)
	}
	return population, ctxTrain, nil
}
