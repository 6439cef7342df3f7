package transport

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"smarteryou/internal/cas"
	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/retrain"
	"smarteryou/internal/sensing"
	"smarteryou/internal/store"
)

// enrollRequest uploads feature windows for a user.
type enrollRequest struct {
	UserID string `json:"user_id"`
	// Replace discards previously stored windows for the user first —
	// used by the retraining flow, which uploads the latest behaviour.
	Replace bool                    `json:"replace,omitempty"`
	Samples []features.WindowSample `json:"samples"`
}

// enrollResponse acknowledges an upload.
type enrollResponse struct {
	Stored int `json:"stored"`
}

// trainRequest asks for authentication models for a user.
type trainRequest struct {
	UserID string `json:"user_id"`
	TrainParams
}

// trainResponse carries the trained bundle and the registry version it
// was published as.
type trainResponse struct {
	Bundle  *core.ModelBundle `json:"bundle"`
	Version int               `json:"version,omitempty"`
}

// fetchModelRequest downloads a previously published model from the
// registry without retraining. Version 0 means latest.
type fetchModelRequest struct {
	UserID  string `json:"user_id"`
	Version int    `json:"version,omitempty"`
	// IfHash is the hex content hash of the bundle the client already
	// caches; when the registry's current bundle matches, the server
	// answers Unchanged without resending the body.
	IfHash string `json:"if_hash,omitempty"`
}

// fetchModelResponse carries a registered model and its version.
type fetchModelResponse struct {
	Version int               `json:"version"`
	Bundle  *core.ModelBundle `json:"bundle,omitempty"`
	// Hash is the served bundle's content hash (hex SHA-256 of the
	// bundle bytes), the key for conditional re-fetches.
	Hash string `json:"hash,omitempty"`
	// Unchanged reports that the client's IfHash bundle is still
	// current; Bundle is omitted.
	Unchanged bool `json:"unchanged,omitempty"`
}

// authRequest asks the server to classify one feature window with the
// user's current authentication model.
type authRequest struct {
	UserID string                `json:"user_id"`
	Sample features.WindowSample `json:"sample"`
}

// authResponse carries the server-side authentication decision.
type authResponse struct {
	Context           string  `json:"context"`
	ContextConfidence float64 `json:"context_confidence"`
	Score             float64 `json:"score"`
	Accepted          bool    `json:"accepted"`
}

// batchAuthRequest classifies many windows for one user in one round
// trip; it travels in the binary codec of wirev2.go.
type batchAuthRequest struct {
	UserID  string                  `json:"user_id"`
	Samples []features.WindowSample `json:"samples"`
}

// batchAuthResponse carries one decision per submitted window, in order.
type batchAuthResponse struct {
	Decisions []authResponse `json:"decisions"`
}

// ServerStats reports the server's population store and its persistence
// state.
type ServerStats struct {
	Users   int `json:"users"`
	Windows int `json:"windows"`
	// WALBytes is the current size of the write-ahead log.
	WALBytes int64 `json:"wal_bytes,omitempty"`
	// SnapshotAgeSeconds is the age of the last compaction snapshot
	// (absent before the first compaction).
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds,omitempty"`
	// ModelVersions is the latest registered model version per
	// (anonymized) user.
	ModelVersions map[string]int `json:"model_versions,omitempty"`
	// Shards reports the store's per-shard record counts; its length is
	// the shard count.
	Shards []ShardStats `json:"shards,omitempty"`
	// Train reports the training worker pool's state.
	Train TrainPoolStats `json:"train"`
	// Replication reports this server's replication role and progress when
	// it is a cluster node.
	Replication *ReplicationInfo `json:"replication,omitempty"`
	// Retrain reports the drift-triggered retraining subsystem when it is
	// enabled.
	Retrain *RetrainStats `json:"retrain,omitempty"`
	// Wire reports wire-protocol traffic counters.
	Wire *WireStats `json:"wire,omitempty"`
}

// WireStats counts wire-protocol traffic by request shape.
type WireStats struct {
	// V2Requests counts every request envelope read (single, batch and
	// stream-open alike; windows inside a stream are StreamWindows).
	V2Requests uint64 `json:"v2_requests,omitempty"`
	// BatchWindows counts windows served through batch authenticate.
	BatchWindows uint64 `json:"batch_windows,omitempty"`
	// StreamSessions counts accepted stream-open handshakes;
	// StreamWindows counts windows served inside streams.
	StreamSessions uint64 `json:"stream_sessions,omitempty"`
	StreamWindows  uint64 `json:"stream_windows,omitempty"`
}

// ReplicationInfo is the replication slice of the stats response.
type ReplicationInfo struct {
	// Role is "owner" while the node owns at least one shard, "replica"
	// while it owns none.
	Role string `json:"role"`
	// Connected reports whether the stream from every peer is up.
	Connected bool `json:"connected,omitempty"`
	// ShardSeqs is the local store's per-shard durable sequence cursor.
	ShardSeqs []uint64 `json:"shard_seqs,omitempty"`
	// Followers reports each connected peer's progress on the shards this
	// node owns.
	Followers []ReplicationFollower `json:"followers,omitempty"`
}

// ReplicationFollower is one peer's progress as seen by a shard owner.
type ReplicationFollower struct {
	Addr string `json:"addr"`
	// Acked is the peer's last acknowledged sequence per shard.
	Acked []uint64 `json:"acked"`
	// Lag is total outstanding records across the owner's shards.
	Lag uint64 `json:"lag"`
}

// TrainPoolStats is a snapshot of the training worker pool.
type TrainPoolStats struct {
	// Workers is the pool size; QueueDepth the queue's capacity.
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// InFlight is jobs currently training; Queued is jobs waiting.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// Rejected counts train requests answered with busy; Completed counts
	// finished jobs.
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
}

// ShardStats is one store shard's contribution to the population.
type ShardStats struct {
	Users    int    `json:"users"`
	Windows  int    `json:"windows"`
	WALBytes int64  `json:"wal_bytes"`
	Records  uint64 `json:"records"`
	// LastSeq is the shard's last durable sequence number — the
	// replication cursor.
	LastSeq uint64 `json:"last_seq"`
}

// statsResponse is the stats reply payload.
type statsResponse = ServerStats

// Server is the cloud Authentication Server of Section IV-A3. It stores
// anonymized population feature data, serves the user-agnostic context
// detector, and trains per-user authentication models on demand.
type Server struct {
	key      []byte
	detector *ctxdetect.Detector
	logf     func(format string, args ...any)
	// persist owns the population and the model registry: the server reads
	// both through it on every request and keeps a copy of neither, so
	// whatever writes the store — a request, a replication stream, a
	// snapshot install — is served without the server being told.
	persist *store.Store

	mu     sync.Mutex
	models map[string]cachedBundle // anonymized user id -> decoded bundle, see currentBundle

	replInfo func() *ReplicationInfo

	// router, when non-nil, makes this server one node of a shard-ownership
	// cluster: writes for shards it owns are served, everything else is
	// redirected to the owner (or briefly refused while a handoff seals the
	// shard). A node that owns nothing is a read replica.
	router ShardRouter

	pool *workerPool
	// drift is the drift-triggered retraining loop; nil when disabled.
	drift *driftLoop

	wg       sync.WaitGroup
	listener net.Listener
	closed   chan struct{}

	// connMu/conns track accepted connections so Close can interrupt
	// serveConn loops blocked reading an idle keep-alive session; without
	// it a server with connected clients would never finish closing.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// Wire-protocol traffic counters; see WireStats.
	wireV2Requests     atomic.Uint64
	wireBatchWindows   atomic.Uint64
	wireStreamSessions atomic.Uint64
	wireStreamWindows  atomic.Uint64
}

// cachedBundle is a decoded bundle and the content hash of the registry
// blob it came from.
type cachedBundle struct {
	bundle *core.ModelBundle
	hash   cas.Hash
}

// ServerConfig configures a new server.
type ServerConfig struct {
	// Key is the pre-shared HMAC key; required.
	Key []byte
	// Detector is the pre-trained user-agnostic context detector served to
	// enrolling phones; required.
	Detector *ctxdetect.Detector
	// Logf receives server logs; nil discards them.
	Logf func(format string, args ...any)
	// Store is the only owner of the population and the trained models;
	// required. The server appends every enroll/replace to its write-ahead
	// log before acknowledging, publishes every trained bundle to its
	// versioned model registry, and reads enrolled windows and current
	// models from it on every request, so state recovered at Open or
	// written by a replication stream is served with no further wiring. A
	// server that need not survive a restart takes a store opened in a
	// temporary directory. The caller retains ownership and must Close the
	// store after Close-ing the server.
	Store *store.Store
	// TrainWorkers bounds concurrent training jobs; 0 means GOMAXPROCS.
	TrainWorkers int
	// TrainQueueDepth bounds training jobs waiting for a worker; 0 means
	// twice the worker count. When the queue is full, additional train
	// requests are answered with a busy response instead of queuing
	// unboundedly.
	TrainQueueDepth int
	// ReplicationInfo, when set, is polled by the stats request to report
	// this server's replication role and progress.
	ReplicationInfo func() *ReplicationInfo
	// Router, when set, plugs this server into a shard-ownership cluster:
	// writes are answered only for shards the router reports as locally
	// owned (others redirect to the owner's client address), the shard map
	// is served to routing clients, and the retrain scheduler's budget is
	// partitioned by the node's owned-shard fraction.
	Router ShardRouter
	// Retrain, when set, enables autonomous drift-triggered retraining:
	// every served authenticate decision updates a per-user drift monitor,
	// and users whose confidence EWMA sinks below Retrain.Threshold are
	// retrained through a coalesced, budgeted scheduler without any client
	// action. With a Router, candidates for users whose shard another node
	// owns still accumulate monitor state (so a node that takes the shard
	// over schedules from what it observed) but are deferred to the owner
	// rather than scheduled locally.
	Retrain *retrain.Config
}

// NewServer builds a server (not yet listening).
func NewServer(cfg ServerConfig) (*Server, error) {
	if len(cfg.Key) == 0 {
		return nil, fmt.Errorf("transport: server needs an HMAC key")
	}
	if cfg.Detector == nil {
		return nil, fmt.Errorf("transport: server needs a context detector")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("transport: server needs a Store (an ephemeral server opens one in a temporary directory)")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		key:      cfg.Key,
		detector: cfg.Detector,
		logf:     logf,
		persist:  cfg.Store,
		models:   make(map[string]cachedBundle),
		replInfo: cfg.ReplicationInfo,
		router:   cfg.Router,
		closed:   make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
	s.pool = newWorkerPool(cfg.TrainWorkers, cfg.TrainQueueDepth, s.runTrainJob)
	if cfg.Retrain != nil {
		s.startDrift(*cfg.Retrain)
	}
	return s, nil
}

// SeedPopulation preloads anonymized population windows (the data of
// previously enrolled users), keyed by any stable identifier; identifiers
// are anonymized before storage. On a cluster node only locally-owned
// users are seeded — writing another node's shard would fork its
// sequence numbers — so seed each node with the same map and the
// population lands partitioned exactly as live enrolls would. Users are
// written in sorted id order, so one corpus always produces the same log.
// It stops at the first write the store refuses: a partially seeded
// population must not be served.
func (s *Server) SeedPopulation(byUser map[string][]features.WindowSample) error {
	ids := make([]string, 0, len(byUser))
	for id := range byUser {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		anon := anonymize(id)
		if !s.ownsWrite(anon) {
			continue
		}
		if err := s.persist.Enroll(anon, anonymizeSamples(anon, byUser[id]), false); err != nil {
			return fmt.Errorf("transport: seed population: %s: %w", anon, err)
		}
	}
	return nil
}

// anonymize maps a user identifier to a stable pseudonym so that one
// user's training module can use other users' feature data "but has no way
// to know the other users' identities" (Section IV-A3).
func anonymize(userID string) string {
	sum := sha256.Sum256([]byte("smarteryou-anon:" + userID))
	return "anon-" + hex.EncodeToString(sum[:8])
}

// AnonymizeUser exposes the server's pseudonym mapping: the pure
// function every layer agrees on for shard placement (the store hashes
// the pseudonym, never the raw id). Cluster tooling uses it to compute
// which node owns a user without a round trip.
func AnonymizeUser(userID string) string { return anonymize(userID) }

func anonymizeSamples(anon string, in []features.WindowSample) []features.WindowSample {
	out := make([]features.WindowSample, len(in))
	for i, w := range in {
		w.UserID = anon
		out[i] = w
	}
	return out
}

// Start begins listening on addr (e.g. "127.0.0.1:0") and serving
// connections until Close. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	return s.StartListener(ln)
}

// StartListener is Start over an already-bound listener — cluster
// bring-up binds every port first so the shard map can carry final
// client addresses before any server starts.
func (s *Server) StartListener(ln net.Listener) (net.Addr, error) {
	s.listener = ln
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			s.logf("accept: %v", err)
			return
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				if err := conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
					s.logf("close conn: %v", err)
				}
			}()
			s.serveConn(conn)
		}()
	}
}

// Close stops the listener, interrupts connections idling between
// requests, waits for in-flight requests, stops the drift scheduler, then
// drains the training pool. A request already dispatched completes (its
// durable side effects land) even though the response write may fail;
// connections waiting on queued train jobs finish before wg.Wait returns.
// The scheduler closes before the pool because its in-flight retrains run
// on pool workers, and once it is closed nothing submits new jobs, so the
// pool is idle by the time it is closed.
func (s *Server) Close() error {
	close(s.closed)
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	// Closing a tracked connection unblocks its serveConn from ReadFrame;
	// a handler mid-dispatch finishes first and fails only on the write
	// back. Clients treat the dropped connection as transient and retry
	// elsewhere, the failover path that
	// cluster.TestServedWritesSurviveHandoffAndTakeOver drives.
	s.connMu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	s.closeDrift()
	s.pool.close()
	return err
}

// serveConn handles one client connection: a loop of request frames.
// A stream-open request hands the connection to the streaming loop; when
// the stream closes cleanly the connection returns here.
func (s *Server) serveConn(conn net.Conn) {
	for {
		env, err := ReadFrame(conn)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
				s.logf("read frame: %v", err)
			}
			return
		}
		s.wireV2Requests.Add(1)
		if env.Type == TypeStreamOpen {
			if !s.handleStream(conn, env) {
				return
			}
			continue
		}
		resp := s.dispatch(env)
		if err := WriteFrame(conn, resp); err != nil {
			s.logf("write frame: %v", err)
			return
		}
	}
}

// dispatch verifies and executes one request, always producing a response
// envelope (errors become TypeError).
func (s *Server) dispatch(env Envelope) Envelope {
	respond := func(msgType string, payload any) Envelope {
		out, err := Seal(s.key, msgType, payload)
		if err != nil {
			s.logf("seal response: %v", err)
			fallback, _ := Seal(s.key, TypeError, errorPayload{Message: "internal error"})
			return fallback
		}
		return out
	}
	fail := func(err error) Envelope {
		s.logf("request %s failed: %v", env.Type, err)
		return respond(TypeError, errorPayload{Message: err.Error()})
	}
	sealedBusy := func() Envelope {
		return respond(TypeBusy, busyPayload{
			Message:           "shard is mid-handoff, retry shortly",
			RetryAfterSeconds: 0.05,
		})
	}
	// admitWrite is the one place a write (enroll, train, retrain) is
	// admitted or turned away: on a cluster node a remote owner becomes a
	// redirect carrying its address (the client refreshes its shard map and
	// follows) and a sealed shard a brief busy (the handoff publishes the
	// new owner within the backoff). ok=false means refusal is the response
	// to send.
	admitWrite := func(userID string) (anon string, refusal Envelope, ok bool) {
		if userID == "" {
			return "", fail(fmt.Errorf("%s: missing user id", env.Type)), false
		}
		anon = anonymize(userID)
		if s.router != nil {
			switch decision, owner := s.router.RouteWrite(anon); decision {
			case RouteRemote:
				return "", respond(TypeRedirect, redirectPayload{
					Message: fmt.Sprintf("%s: shard owned by another node", env.Type),
					Leader:  owner,
				}), false
			case RouteSealed:
				return "", sealedBusy(), false
			}
		}
		return anon, Envelope{}, true
	}

	switch env.Type {
	case TypeEnroll:
		var req enrollRequest
		if err := env.Open(s.key, &req); err != nil {
			return fail(err)
		}
		anon, refusal, ok := admitWrite(req.UserID)
		if !ok {
			return refusal
		}
		// The write is WAL-first — durable before applied or acknowledged —
		// and holds only the user's shard lock, never s.mu, so other shards
		// and every authenticate proceed during the fsync.
		if err := s.persist.Enroll(anon, anonymizeSamples(anon, req.Samples), req.Replace); err != nil {
			if errors.Is(err, store.ErrSealed) {
				// The shard sealed between the route check and the append;
				// nothing was applied.
				return sealedBusy()
			}
			return fail(fmt.Errorf("enroll: persist: %w", err))
		}
		return respond(TypeOK, enrollResponse{Stored: len(s.persist.UserWindows(anon))})

	case TypeFetchDetector:
		if err := env.Open(s.key, nil); err != nil {
			return fail(err)
		}
		return respond(TypeOK, s.detector)

	case TypeTrain:
		var req trainRequest
		if err := env.Open(s.key, &req); err != nil {
			return fail(err)
		}
		anon, refusal, ok := admitWrite(req.UserID)
		if !ok {
			return refusal
		}
		// Training is the one CPU-heavy request; it runs on the bounded
		// worker pool. A full queue fails fast with TypeBusy so a burst of
		// retraining phones degrades into retries, not an overloaded host.
		job := trainJob{req: req, anon: anon, done: make(chan trainResult, 1)}
		if !s.pool.trySubmit(job) {
			s.logf("train %s: queue full, rejecting", req.UserID)
			return respond(TypeBusy, busyPayload{
				Message:           "training queue is full",
				RetryAfterSeconds: 1,
			})
		}
		res := <-job.done
		if res.err != nil {
			if errors.Is(res.err, store.ErrSealed) {
				// The model publish raced a shard handoff; the bundle was
				// never registered, so a retry re-trains against the new
				// owner cleanly.
				return sealedBusy()
			}
			return fail(res.err)
		}
		return respond(TypeOK, trainResponse{Bundle: res.bundle, Version: res.version})

	case TypeAuthenticate:
		var req authRequest
		if err := env.Open(s.key, &req); err != nil {
			return fail(err)
		}
		resp, err := s.authenticate(req)
		if err != nil {
			return fail(err)
		}
		return respond(TypeOK, resp)

	case TypeAuthBatch:
		var req batchAuthRequest
		if err := env.Open(s.key, &req); err != nil {
			return fail(err)
		}
		resp, err := s.authenticateBatch(req)
		if err != nil {
			return fail(err)
		}
		return respond(TypeOK, resp)

	case TypeRetrain:
		var req retrainRequest
		if err := env.Open(s.key, &req); err != nil {
			return fail(err)
		}
		anon, refusal, ok := admitWrite(req.UserID)
		if !ok {
			return refusal
		}
		if s.drift == nil {
			return fail(fmt.Errorf("retrain: drift-triggered retraining is disabled on this server"))
		}
		if len(s.persist.UserWindows(anon)) == 0 {
			return fail(fmt.Errorf("retrain: user %s has no enrolled data", req.UserID))
		}
		// Build the candidate from the monitor's current view; a user the
		// monitor has not seen gets a zero-severity candidate (it still
		// runs, just never ahead of genuinely drifted users).
		cand := retrain.Candidate{User: anon, EWMA: s.drift.cfg.Threshold, LastTrain: time.Now()}
		if st, ok := s.drift.monitor.State(anon); ok {
			cand.EWMA = st.EWMA
			cand.Windows = st.Windows
			cand.LastTrain = time.Unix(st.LastTrainUnix, 0)
		}
		switch s.drift.sched.Offer(cand) {
		case retrain.Offered:
			return respond(TypeOK, retrainResponse{Queued: true})
		case retrain.OfferCoalesced:
			return respond(TypeOK, retrainResponse{Queued: true, Reason: "coalesced"})
		case retrain.OfferCooldown:
			return respond(TypeOK, retrainResponse{Reason: "cooldown"})
		case retrain.OfferQueueFull:
			return respond(TypeBusy, busyPayload{
				Message:           "retrain queue is full",
				RetryAfterSeconds: 1,
			})
		default: // OfferClosed
			return fail(fmt.Errorf("retrain: scheduler is shut down"))
		}

	case TypeFetchModel:
		var req fetchModelRequest
		if err := env.Open(s.key, &req); err != nil {
			return fail(err)
		}
		if req.UserID == "" {
			return fail(fmt.Errorf("fetch-model: missing user id"))
		}
		anon := anonymize(req.UserID)
		if req.Version == 0 && req.IfHash != "" {
			// Answer from the registry entry alone rather than reassemble a
			// blob that would not be sent; the read below reports failures.
			if version, hash, err := s.persist.LatestModelHash(anon); err == nil && hash.Hex() == req.IfHash {
				return respond(TypeOK, fetchModelResponse{Version: version, Hash: req.IfHash, Unchanged: true})
			}
		}
		blob, hash, version, err := s.persist.ModelBlobAt(anon, req.Version)
		if err != nil {
			return fail(err)
		}
		hashHex := hash.Hex()
		if req.IfHash != "" && req.IfHash == hashHex {
			return respond(TypeOK, fetchModelResponse{Version: version, Hash: hashHex, Unchanged: true})
		}
		bundle, err := core.UnmarshalModelBundle(blob)
		if err != nil {
			return fail(err)
		}
		return respond(TypeOK, fetchModelResponse{Version: version, Bundle: bundle, Hash: hashHex})

	case TypeShardMap:
		if err := env.Open(s.key, nil); err != nil {
			return fail(err)
		}
		if s.router == nil {
			return fail(fmt.Errorf("shard-map: this server is not part of a cluster"))
		}
		return respond(TypeOK, shardMapResponse{Map: s.router.ShardMapInfo()})

	case TypeDriftState:
		var req driftStateRequest
		if err := env.Open(s.key, &req); err != nil {
			return fail(err)
		}
		resp, err := s.driftStates(req)
		if err != nil {
			return fail(err)
		}
		return respond(TypeOK, resp)

	case TypeStats:
		if err := env.Open(s.key, nil); err != nil {
			return fail(err)
		}
		st := s.persist.Stats()
		resp := statsResponse{
			Users:         st.Users,
			Windows:       st.Windows,
			WALBytes:      st.WALBytes,
			ModelVersions: st.ModelVersions,
			Train: TrainPoolStats{
				Workers:    s.pool.workers,
				QueueDepth: cap(s.pool.jobs),
				InFlight:   int(s.pool.inFlight.Load()),
				Queued:     s.pool.queued(),
				Rejected:   s.pool.rejected.Load(),
				Completed:  s.pool.completed.Load(),
			},
		}
		if st.HasSnapshot {
			resp.SnapshotAgeSeconds = st.SnapshotAge.Seconds()
		}
		for _, shs := range st.Shards {
			resp.Shards = append(resp.Shards, ShardStats{
				Users:    shs.Users,
				Windows:  shs.Windows,
				WALBytes: shs.WALBytes,
				Records:  shs.Records,
				LastSeq:  shs.LastSeq,
			})
		}
		if s.replInfo != nil {
			resp.Replication = s.replInfo()
		}
		resp.Retrain = s.driftStats()
		resp.Wire = &WireStats{
			V2Requests:     s.wireV2Requests.Load(),
			BatchWindows:   s.wireBatchWindows.Load(),
			StreamSessions: s.wireStreamSessions.Load(),
			StreamWindows:  s.wireStreamWindows.Load(),
		}
		return respond(TypeOK, resp)

	default:
		return fail(fmt.Errorf("unknown request type %q", env.Type))
	}
}

// runTrainJob executes one pooled training job end to end: train,
// publish to the registry, and cache the bundle for server-side
// authentication. A successful publish also resets the user's drift state
// — whoever initiated the retrain, the model now reflects recent
// behaviour.
func (s *Server) runTrainJob(job trainJob) trainResult {
	anon := job.anon
	if anon == "" {
		anon = anonymize(job.req.UserID)
	}
	bundle, err := s.train(anon, job.req, job.recent)
	if err != nil {
		return trainResult{err: err}
	}
	version, err := s.persist.PublishModel(anon, bundle)
	if err != nil {
		return trainResult{err: fmt.Errorf("train: publish model: %w", err)}
	}
	// Cache the bundle under the hash it was published as. If another
	// publish already overtook this one, that hash is not ours: cache
	// nothing and let currentBundle load whatever is latest.
	if latest, hash, err := s.persist.LatestModelHash(anon); err == nil && latest == version {
		s.mu.Lock()
		s.models[anon] = cachedBundle{bundle: bundle, hash: hash}
		s.mu.Unlock()
	}
	if s.drift != nil {
		s.drift.monitor.MarkTrained(anon, time.Now())
	}
	return trainResult{bundle: bundle, version: version}
}

// currentBundle is the one place a user's serving model is resolved. The
// cached bundle is served only while its hash is still the registry's
// latest (a lock and a map lookup: no CAS read, no allocation) and is
// reloaded otherwise, so a model that was replicated, installed with a
// snapshot or recovered at Open is picked up unprompted. Only
// store.ErrNoModel means "no model"; anything else is a registry failure.
func (s *Server) currentBundle(anon string) (*core.ModelBundle, error) {
	s.mu.Lock()
	cached := s.models[anon]
	s.mu.Unlock()
	_, latest, err := s.persist.LatestModelHash(anon)
	if err != nil {
		return nil, err
	}
	if cached.bundle != nil && cached.hash == latest {
		return cached.bundle, nil
	}
	blob, hash, _, err := s.persist.LatestModelBlob(anon)
	if err != nil {
		return nil, err
	}
	bundle, err := core.UnmarshalModelBundle(blob)
	if err != nil {
		return nil, fmt.Errorf("decode registry model for %s: %w", anon, err)
	}
	s.mu.Lock()
	s.models[anon] = cachedBundle{bundle: bundle, hash: hash}
	s.mu.Unlock()
	if cached.bundle != nil && s.drift != nil {
		// A publish this server did not make superseded the model it was
		// serving (the shard's owner retrained the user): reset the drift
		// state too, so a later takeover does not immediately re-fire on
		// drift the new model already absorbed.
		s.drift.monitor.MarkTrained(anon, time.Now())
	}
	return bundle, nil
}

// resolveAuth maps a user to a ready authenticator over their current
// model. Single-window, batch and streaming authentication all start
// here; batch and stream pay the cost once for many windows.
func (s *Server) resolveAuth(userID string) (anon string, auth *core.Authenticator, err error) {
	if userID == "" {
		return "", nil, fmt.Errorf("authenticate: missing user id")
	}
	anon = anonymize(userID)
	bundle, err := s.currentBundle(anon)
	if errors.Is(err, store.ErrNoModel) {
		return "", nil, fmt.Errorf("authenticate: user %s has no trained model", userID)
	}
	if err != nil {
		return "", nil, fmt.Errorf("authenticate: model registry: %w", err)
	}
	auth, err = core.NewAuthenticator(s.detector, bundle)
	if err != nil {
		return "", nil, fmt.Errorf("authenticate: %w", err)
	}
	return anon, auth, nil
}

// decisionResponse shapes a scoring decision for the wire.
func decisionResponse(d core.Decision) authResponse {
	return authResponse{
		Context:           d.Context.String(),
		ContextConfidence: d.ContextConfidence,
		Score:             d.Score,
		Accepted:          d.Accepted,
	}
}

// authenticate classifies one window with the user's current model. Runs
// inline on the connection goroutine — it is microseconds of work and
// must keep succeeding while the training pool is saturated.
func (s *Server) authenticate(req authRequest) (authResponse, error) {
	anon, auth, err := s.resolveAuth(req.UserID)
	if err != nil {
		return authResponse{}, err
	}
	d, err := auth.Authenticate(req.Sample)
	if err != nil {
		return authResponse{}, fmt.Errorf("authenticate: %w", err)
	}
	// Feed the drift monitor: this is the retraining loop's only sensor.
	s.observeDrift(anon, d.Score, d.Accepted)
	return decisionResponse(d), nil
}

// authenticateBatch classifies many windows for one user: the model is
// resolved once and the score vector is pooled across the whole batch.
// Decisions come back in window order; every decision still feeds the
// drift monitor, so batching does not blind the retraining loop.
func (s *Server) authenticateBatch(req batchAuthRequest) (batchAuthResponse, error) {
	anon, auth, err := s.resolveAuth(req.UserID)
	if err != nil {
		return batchAuthResponse{}, err
	}
	decisions, err := auth.AuthenticateBatch(req.Samples, make([]core.Decision, 0, len(req.Samples)))
	if err != nil {
		return batchAuthResponse{}, fmt.Errorf("authenticate: %w", err)
	}
	s.wireBatchWindows.Add(uint64(len(decisions)))
	resp := batchAuthResponse{Decisions: make([]authResponse, len(decisions))}
	for i, d := range decisions {
		s.observeDrift(anon, d.Score, d.Accepted)
		resp.Decisions[i] = decisionResponse(d)
	}
	return resp, nil
}

// coarseContexts is the fixed order every per-context walk takes.
var coarseContexts = [...]sensing.CoarseContext{sensing.CoarseStationary, sensing.CoarseMoving}

// train runs the training module for one user. It is the one way the
// server builds a model, for client trains and scheduled retrains alike:
// positives are the user's stored windows (each context's newest `recent`
// of them when recent > 0), negatives the impostor sample of MaxPerClass
// windows per context (every other user's windows when 0).
func (s *Server) train(anon string, req trainRequest, recent int) (*core.ModelBundle, error) {
	legit := recentPerContext(s.persist.UserWindows(anon), recent)
	if len(legit) == 0 {
		return nil, fmt.Errorf("train: user %s has no enrolled data", req.UserID)
	}
	impostor := s.impostors(anon, req.MaxPerClass)
	if len(impostor) == 0 {
		return nil, fmt.Errorf("train: population store has no other users")
	}
	return core.Train(legit, impostor, core.TrainConfig{
		Mode:        req.Mode,
		Rho:         req.Rho,
		MaxPerClass: req.MaxPerClass,
		TargetFRR:   req.TargetFRR,
		Seed:        req.Seed,
	})
}

// recentPerContext keeps each coarse context's newest n windows, in
// stored order (all of them when n <= 0), so a retrain that follows
// current behaviour never drops a context the user has stopped visiting.
func recentPerContext(w []features.WindowSample, n int) []features.WindowSample {
	if n <= 0 {
		return w
	}
	kept := make(map[sensing.CoarseContext]int, len(coarseContexts))
	out := make([]features.WindowSample, 0, min(len(w), len(coarseContexts)*n))
	for i := len(w) - 1; i >= 0; i-- {
		if c := w[i].Context.Coarse(); kept[c] < n {
			kept[c]++
			out = append(out, w[i])
		}
	}
	slices.Reverse(out)
	return out
}

// impostors gathers the impostor sample of one train from every user but
// anon, walked in sorted pseudonym order so that the same store always
// yields the same sample in the same order. With perContext > 0 it takes
// ⌈perContext/users⌉ evenly strided windows of each coarse context from
// each user: a train then costs what its sample costs, not what the
// population does, and both contexts are present even when every user's
// windows are blocked by context.
func (s *Server) impostors(anon string, perContext int) []features.WindowSample {
	pop := s.persist.PopulationView()
	delete(pop, anon)
	ids := make([]string, 0, len(pop))
	total := 0
	for id, w := range pop {
		if len(w) > 0 {
			ids = append(ids, id)
			total += len(w)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	if perContext <= 0 {
		out := make([]features.WindowSample, 0, total)
		for _, id := range ids {
			out = append(out, pop[id]...)
		}
		return out
	}
	quota := (perContext + len(ids) - 1) / len(ids)
	out := make([]features.WindowSample, 0, min(total, len(coarseContexts)*quota*len(ids)))
	for _, id := range ids {
		for _, c := range coarseContexts {
			out = appendStrided(out, pop[id], c, quota)
		}
	}
	return out
}

// appendStrided appends up to n evenly strided windows of context c from
// w, in stored order.
func appendStrided(out, w []features.WindowSample, c sensing.CoarseContext, n int) []features.WindowSample {
	have := 0
	for i := range w {
		if w[i].Context.Coarse() == c {
			have++
		}
	}
	n = min(n, have)
	// The k-th pick is the (k·have/n)-th window of context c.
	for i, seen, k := 0, 0, 0; k < n; i++ {
		if w[i].Context.Coarse() != c {
			continue
		}
		if seen == k*have/n {
			out = append(out, w[i])
			k++
		}
		seen++
	}
	return out
}
