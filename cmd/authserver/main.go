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
// server is in-memory, exactly as before.
//
// Replication turns one durable server into a leader–follower pair:
//
//   - The leader adds -replication-addr, a second listener from which
//     followers stream the store's WAL.
//   - A follower runs with -replicate-from pointing at that listener. It
//     serves authenticate, fetch-model, fetch-detector and stats from its
//     replicated store, and answers enroll/train with a redirect to the
//     leader. It starts its replication stream once, waits for the
//     leader's context detector to arrive over it, and then starts
//     serving the store the stream keeps writing — the server reads the
//     store on every request, so nothing has to stop or reload. SIGHUP
//     promotes a running follower to leader in place; -promote starts a
//     former follower's data dir as the new leader.
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
// a binary WAL). A -data-dir written in an earlier format is refused at
// startup, untouched, with an error naming the offending file; see the
// README's "Upgrading a data directory".
//
// A shard-ownership cluster replaces the single write leader with N
// writable nodes, each the leader for a subset of the store's FNV shards
// while replicating every shard to its peers over a full mesh:
//
//   - Every node runs with the same -cluster-peers list: comma-separated
//     client/repl/ctrl address triples, one per node, in a canonical
//     order shared by the whole cluster. -cluster-ctrl names this node's
//     own control address, identifying it inside the list.
//   - Shard ownership auto-balances round-robin across the peers. With
//     -owned-shards, the node instead takes the listed shards from their
//     current owners at startup with a live handoff (seal, converge over
//     the mesh, publish the new map) — no acked write is lost.
//   - At startup the node adopts the live cluster map from any answering
//     peer (joining it if absent) and falls back to the balanced
//     founding map when no peer is up yet, so the same command line
//     cold-starts a cluster and rejoins a running one.
//
// Writes for shards a node does not own answer with a redirect to the
// owner; clients with RouteByShard cache the versioned shard map and go
// straight to the right node.
//
// -retrain enables autonomous drift-triggered retraining (the paper's
// Fig. 7 loop, server side): every served authenticate decision updates a
// per-user confidence EWMA, and users that sink below -retrain-threshold
// are retrained through a coalesced, budgeted scheduler — no client or
// operator action. With -data-dir, drift state checkpoints into the store
// registry so restarts resume with the accumulated drift. A follower
// observes drift but defers scheduling to the leader until promoted.
//
// Usage:
//
//	authserver -addr 127.0.0.1:7600 -key secret [-seed-users 10] \
//	    [-data-dir /var/lib/smarteryou] [-shards 8] [-keep-models 16] \
//	    [-replication-addr 127.0.0.1:7700] \
//	    [-replicate-from 127.0.0.1:7700] [-promote] \
//	    [-cluster-peers host1:7600/host1:7700/host1:7800,host2:7600/host2:7700/host2:7800] \
//	    [-cluster-ctrl host1:7800] [-owned-shards 0,2,4] \
//	    [-retrain] [-retrain-threshold 0.2] [-retrain-budget 2] \
//	    [-retrain-cooldown 30m] [-retrain-recent 400]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"smarteryou"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr            = flag.String("addr", "127.0.0.1:7600", "listen address")
		key             = flag.String("key", "", "pre-shared HMAC key (required)")
		seedUsers       = flag.Int("seed-users", 10, "synthetic users to seed the population store and train the context detector")
		seed            = flag.Int64("seed", 1, "synthetic data seed")
		dataDir         = flag.String("data-dir", "", "directory for the durable population store and model registry (empty: in-memory only)")
		shards          = flag.Int("shards", 1, "independent WAL+snapshot shards in the durable store (fixed at store creation; reopening uses the on-disk count)")
		keepModels      = flag.Int("keep-models", 0, "model versions retained per user in the registry (0: unbounded)")
		trainWorkers    = flag.Int("train-workers", 0, "concurrent model-training jobs (0: GOMAXPROCS); excess requests queue up to twice this, then get a busy response")
		replicationAddr = flag.String("replication-addr", "", "additional listener streaming the store's WAL to replication followers (requires -data-dir)")
		replicateFrom   = flag.String("replicate-from", "", "run as a read-only follower of the leader's replication listener at this address (requires -data-dir)")
		promote         = flag.Bool("promote", false, "start a former follower's -data-dir as the new leader (the store must not be empty)")

		clusterPeers = flag.String("cluster-peers", "", "comma-separated client/repl/ctrl address triples of every cluster node, in an order shared by the whole cluster (enables shard-ownership cluster mode; requires -data-dir)")
		clusterCtrl  = flag.String("cluster-ctrl", "", "this node's control-endpoint address, identifying it inside -cluster-peers")
		ownedShards  = flag.String("owned-shards", "", "comma-separated shard indexes this node should own; missing ones are taken from their owners with a live handoff at startup (default: the auto-balanced share)")

		retrainOn        = flag.Bool("retrain", false, "enable autonomous drift-triggered retraining from served authenticate decisions")
		retrainThreshold = flag.Float64("retrain-threshold", 0.2, "confidence-EWMA level below which a user becomes a retrain candidate (the paper's epsilon_CS)")
		retrainBudget    = flag.Int("retrain-budget", 2, "scheduled retrains allowed to run concurrently")
		retrainCooldown  = flag.Duration("retrain-cooldown", 30*time.Minute, "minimum gap between scheduled retrains of the same user")
		retrainRecent    = flag.Int("retrain-recent", 400, "newest stored windows a scheduled retrain trains on")

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
	if (*replicationAddr != "" || *replicateFrom != "" || *promote) && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "authserver: replication needs -data-dir (the WAL is the replication log)")
		return 2
	}
	if *replicateFrom != "" && *promote {
		fmt.Fprintln(os.Stderr, "authserver: -promote and -replicate-from are mutually exclusive (promote takes over as leader)")
		return 2
	}
	if *clusterPeers != "" {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "authserver: cluster mode needs -data-dir (the WAL is the mesh replication log)")
			return 2
		}
		if *replicateFrom != "" || *promote || *replicationAddr != "" {
			fmt.Fprintln(os.Stderr, "authserver: -cluster-peers is exclusive with -replicate-from/-promote/-replication-addr (a cluster node runs its own replication listener from its address triple)")
			return 2
		}
	} else if *clusterCtrl != "" || *ownedShards != "" {
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
		log.Printf("drift retraining enabled: threshold %.2f, budget %d, cooldown %s, recent %d windows",
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

	var store *smarteryou.PopulationStore
	if *dataDir != "" {
		var err error
		store, err = smarteryou.OpenStore(*dataDir, smarteryou.StoreOptions{
			Shards:            *shards,
			KeepModelVersions: *keepModels,
		})
		if err != nil {
			log.Print(err)
			return 1
		}
		st := store.Stats()
		log.Printf("durable store %s: %d shards, recovered %d users, %d windows, %d model versions (replayed %d wal records, dropped %d torn bytes)",
			*dataDir, len(st.Shards), st.Users, st.Windows, len(st.ModelVersions), st.Recovery.Replayed, st.Recovery.TruncatedBytes)
	}
	if *promote && store.Stats().Users == 0 {
		log.Printf("-promote: store at %s is empty; nothing to take over", *dataDir)
		return 1
	}
	if *promote {
		log.Printf("promoting %s: serving as leader with the replicated state", *dataDir)
	}

	if *replicateFrom != "" {
		return runFollower(store, *addr, *key, *replicateFrom, *replicationAddr, retrainCfg)
	}

	// A recovered store may already hold the published context detector;
	// loading it skips the startup corpus generation and forest training
	// entirely when the population is also recovered.
	var detector *smarteryou.Detector
	if store != nil {
		if det, err := store.LatestDetector(); err == nil {
			detector = det
			log.Printf("loaded context detector from registry")
		}
	}
	needSeed := store == nil || store.Stats().Users == 0

	var population map[string][]smarteryou.WindowSample
	if detector == nil || needSeed {
		log.Printf("generating %d-user context-training corpus...", *seedUsers)
		var ctxTrain []smarteryou.WindowSample
		var err error
		population, ctxTrain, err = synthesizeCorpus(*seedUsers, *seed)
		if err != nil {
			log.Print(err)
			return 1
		}
		if detector == nil {
			detector, err = smarteryou.TrainContextDetector(
				smarteryou.ContextTrainingData(ctxTrain), smarteryou.DetectorConfig{Seed: *seed})
			if err != nil {
				log.Print(err)
				return 1
			}
			if store != nil {
				if err := store.PublishDetector(detector); err != nil {
					log.Print(err)
					return 1
				}
				log.Printf("published context detector to registry")
			}
		}
	} else {
		log.Printf("skipping corpus generation: detector and population recovered from store")
	}

	// The replication leader is created before the server so the stats
	// provider below reads a stable variable; it starts listening after
	// the client listener is up.
	var leader *smarteryou.ReplicationLeader
	if *replicationAddr != "" {
		var err error
		leader, err = smarteryou.NewReplicationLeader(smarteryou.ReplicationLeaderConfig{
			Store:         store,
			Key:           []byte(*key),
			AdvertiseAddr: *addr,
			Logf:          log.Printf,
		})
		if err != nil {
			log.Print(err)
			return 1
		}
	}

	server, err := smarteryou.NewAuthServer(smarteryou.AuthServerConfig{
		Key:          []byte(*key),
		Detector:     detector,
		Logf:         log.Printf,
		Store:        store,
		TrainWorkers: *trainWorkers,
		Retrain:      retrainCfg,
		ReplicationInfo: func() *smarteryou.ReplicationInfo {
			if leader == nil {
				return nil
			}
			return replicationInfo(leader.Status())
		},
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	// Seed the synthetic population only into a store that has none yet;
	// a recovered store already holds (possibly real) enrollments, and
	// reseeding would append duplicate windows on every restart.
	if needSeed {
		server.SeedPopulation(population)
	} else {
		log.Printf("skipping synthetic seed: store already populated")
	}
	bound, err := server.Start(*addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	popUsers := *seedUsers
	if store != nil {
		popUsers = store.Stats().Users
	}
	log.Printf("authentication server listening on %s (population: %d users)", bound, popUsers)
	if leader != nil {
		raddr, err := leader.Serve(*replicationAddr)
		if err != nil {
			log.Print(err)
			return 1
		}
		log.Printf("replication listener on %s (followers catch up from the WAL)", raddr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("shutting down")
	code := 0
	if leader != nil {
		if err := leader.Close(); err != nil {
			log.Printf("close replication: %v", err)
			code = 1
		}
	}
	if err := server.Close(); err != nil {
		log.Printf("close: %v", err)
		code = 1
	}
	// The store outlives the server so in-flight requests can still
	// append; flush and close it only once the listener has drained.
	if store != nil {
		if err := store.Close(); err != nil {
			log.Printf("close store: %v", err)
			code = 1
		}
		log.Printf("durable store flushed")
	}
	return code
}

// runFollower runs the read-only follower mode: replicate the leader's
// store (including the published context detector), serve reads, redirect
// writes, and promote to leader on SIGHUP. With retrainCfg, the follower
// monitors drift on its own authenticate traffic but defers scheduling to
// the leader until promoted.
func runFollower(store *smarteryou.PopulationStore, addr, key, leaderAddr, replicationAddr string, retrainCfg *smarteryou.ServerRetrainConfig) int {
	// The stream starts once and runs for the process's lifetime. The
	// server is built later — it needs the replicated context detector —
	// so until then the leader's advertised client address is parked here.
	var (
		mu         sync.Mutex
		serving    *smarteryou.AuthServer
		clientAddr string
	)
	follower, err := smarteryou.StartReplicationFollower(smarteryou.ReplicationFollowerConfig{
		Store:      store,
		Key:        []byte(key),
		LeaderAddr: leaderAddr,
		Logf:       log.Printf,
		OnLeaderAddr: func(addr string) {
			mu.Lock()
			defer mu.Unlock()
			clientAddr = addr
			if serving != nil {
				serving.SetLeaderAddr(addr)
			}
		},
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	log.Printf("follower of %s: waiting for the replicated context detector...", leaderAddr)
	var detector *smarteryou.Detector
	for deadline := time.Now().Add(2 * time.Minute); ; {
		if det, err := store.LatestDetector(); err == nil {
			detector = det
			break
		}
		if time.Now().After(deadline) {
			_ = follower.Close()
			log.Printf("no context detector replicated from %s after 2m; is the leader seeded?", leaderAddr)
			return 1
		}
		time.Sleep(250 * time.Millisecond)
	}
	log.Printf("context detector replicated; store at %d users", store.Stats().Users)

	// The server reads the store the stream keeps writing, so it can be
	// built and started mid-stream.
	server, err := smarteryou.NewAuthServer(smarteryou.AuthServerConfig{
		Key:        []byte(key),
		Detector:   detector,
		Logf:       log.Printf,
		Store:      store,
		Follower:   true,
		LeaderAddr: leaderAddr,
		Retrain:    retrainCfg,
		ReplicationInfo: func() *smarteryou.ReplicationInfo {
			return replicationInfo(follower.Status())
		},
	})
	if err != nil {
		_ = follower.Close()
		log.Print(err)
		return 1
	}
	mu.Lock()
	serving = server
	if clientAddr != "" {
		server.SetLeaderAddr(clientAddr)
	}
	mu.Unlock()
	bound, err := server.Start(addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	log.Printf("read-only follower listening on %s (writes redirect to the leader; SIGHUP promotes)", bound)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	promoted := false
	var leader *smarteryou.ReplicationLeader
	for {
		sig := <-stop
		if sig != syscall.SIGHUP {
			break
		}
		if promoted {
			log.Printf("SIGHUP: already promoted")
			continue
		}
		// Promotion: stop replicating, then open writes. The store keeps
		// the leader-assigned sequence numbers, so new enrollments continue
		// each shard's sequence space.
		follower.Promote()
		server.Promote()
		promoted = true
		log.Printf("promoted to leader at %v", store.ShardLastSeqs())
		if replicationAddr != "" {
			var err error
			leader, err = smarteryou.NewReplicationLeader(smarteryou.ReplicationLeaderConfig{
				Store:         store,
				Key:           []byte(key),
				AdvertiseAddr: addr,
				Logf:          log.Printf,
			})
			if err != nil {
				log.Print(err)
				continue
			}
			raddr, err := leader.Serve(replicationAddr)
			if err != nil {
				log.Print(err)
				leader = nil
				continue
			}
			log.Printf("replication listener on %s", raddr)
		}
	}
	log.Print("shutting down")
	code := 0
	if leader != nil {
		if err := leader.Close(); err != nil {
			log.Printf("close replication: %v", err)
			code = 1
		}
	}
	if err := follower.Close(); err != nil {
		log.Printf("close follower: %v", err)
		code = 1
	}
	if err := server.Close(); err != nil {
		log.Printf("close: %v", err)
		code = 1
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
// own. The node listens on its own triple from -cluster-peers (-addr is
// ignored; the triple is the one source of addresses).
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
	if store.ShardCount() < len(infos) {
		log.Printf("warning: %d shards over %d nodes leaves nodes with no writable share; create the store with -shards >= node count", store.ShardCount(), len(infos))
	}

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
	}

	// Detector: recover from the registry, else train it from the
	// deterministic corpus — identical on every node for the same -seed.
	// Only the node owning the detector's registry shard publishes it;
	// the record reaches everyone else over the mesh.
	var detector *smarteryou.Detector
	if det, err := store.LatestDetector(); err == nil {
		detector = det
		log.Printf("loaded context detector from registry")
	}
	needSeed := st.Users == 0
	var population map[string][]smarteryou.WindowSample
	if detector == nil || needSeed {
		log.Printf("generating %d-user context-training corpus...", cfg.seedUsers)
		var ctxTrain []smarteryou.WindowSample
		population, ctxTrain, err = synthesizeCorpus(cfg.seedUsers, cfg.seed)
		if err != nil {
			log.Print(err)
			return 1
		}
		if detector == nil {
			detector, err = smarteryou.TrainContextDetector(
				smarteryou.ContextTrainingData(ctxTrain), smarteryou.DetectorConfig{Seed: cfg.seed})
			if err != nil {
				log.Print(err)
				return 1
			}
			selfInMap := mapIndexOf(m, self.CtrlAddr)
			if detShard := m.ShardForUser(smarteryou.DetectorRegistryKey); selfInMap >= 0 && m.OwnerOf(detShard) == selfInMap {
				if err := store.PublishDetector(detector); err != nil {
					log.Print(err)
					return 1
				}
				log.Printf("published context detector to registry (this node owns its shard %d)", detShard)
			}
		}
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
		Key:          []byte(cfg.key),
		Detector:     detector,
		Logf:         log.Printf,
		Store:        store,
		TrainWorkers: cfg.trainWorkers,
		Retrain:      cfg.retrain,
		Router:       node,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	// Seed only the users whose shards this node owns: every node runs
	// the same flags, derives the same corpus, and contributes exactly
	// its share — the mesh converges the full population everywhere.
	if needSeed && population != nil {
		selfInMap := mapIndexOf(m, self.CtrlAddr)
		mine := make(map[string][]smarteryou.WindowSample)
		for id, samples := range population {
			if selfInMap >= 0 && m.OwnerOf(m.ShardForUser(smarteryou.AnonymizeUser(id))) == selfInMap {
				mine[id] = samples
			}
		}
		server.SeedPopulation(mine)
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
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("shutting down")
	code := 0
	if err := server.Close(); err != nil {
		log.Printf("close: %v", err)
		code = 1
	}
	if err := node.Close(); err != nil {
		log.Printf("close cluster node: %v", err)
		code = 1
	}
	if err := store.Close(); err != nil {
		log.Printf("close store: %v", err)
		code = 1
	}
	log.Printf("durable store flushed")
	return code
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

// replicationInfo shapes a replication status for the stats response.
func replicationInfo(st smarteryou.ReplicationStatus) *smarteryou.ReplicationInfo {
	info := &smarteryou.ReplicationInfo{
		Role:       st.Role,
		Connected:  st.Connected,
		LeaderAddr: st.LeaderAddr,
		ShardSeqs:  st.ShardSeqs,
	}
	for _, f := range st.Followers {
		info.Followers = append(info.Followers, smarteryou.ReplicationFollowerInfo{
			Addr:  f.Addr,
			Acked: f.Acked,
			Lag:   f.Lag,
		})
	}
	return info
}
