// Package smarteryou is the public API of this reproduction of
// "Implicit Smartphone User Authentication with Sensors and Contextual
// Machine Learning" (Lee & Lee, DSN 2017) — the SmarterYou system.
//
// SmarterYou continuously re-authenticates a smartphone user from the
// accelerometer and gyroscope of the phone (and, when present, a paired
// smartwatch), without user interaction and without permission-gated
// sensors. The pipeline is:
//
//	sensors -> 6 s windows -> time+frequency features (Eq. 1-4)
//	        -> user-agnostic context detection (stationary / moving)
//	        -> per-context kernel ridge regression classifier
//	        -> response module (allow / deny / lock)
//	        -> confidence-score retraining monitor
//
// This package re-exports the user-facing types of the internal
// implementation packages. A minimal flow:
//
//	pop, _ := smarteryou.NewPopulation(35, 1)          // or your own sensor source
//	owner := pop.Users[0]
//	samples, _ := smarteryou.Collect(owner, smarteryou.CollectOptions{})
//	det, _ := smarteryou.TrainContextDetector(
//		smarteryou.ContextTrainingData(otherUsersSamples), smarteryou.DetectorConfig{})
//	bundle, _ := smarteryou.Train(samples, impostorSamples, smarteryou.TrainConfig{
//		Mode: smarteryou.Mode{Combined: true, UseContext: true},
//	})
//	auth, _ := smarteryou.NewAuthenticator(det, bundle)
//	decision, _ := auth.Authenticate(window)
//
// See the examples/ directory for complete programs, and DESIGN.md for
// how each paper experiment maps onto the implementation.
package smarteryou

import (
	"time"

	"smarteryou/internal/cas"
	"smarteryou/internal/cluster"
	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/replication"
	"smarteryou/internal/retrain"
	"smarteryou/internal/sensing"
	"smarteryou/internal/store"
	"smarteryou/internal/transport"
)

// Sensing: synthetic users, devices, contexts, signal generation.
type (
	// User is one device owner: a generative behavioural model plus
	// demographics.
	User = sensing.User
	// Population is a cohort of users (the study's participant pool).
	Population = sensing.Population
	// Session is one contiguous recording of a user in a fixed context.
	Session = sensing.Session
	// Stream is a fixed-rate sequence of sensor samples from one device.
	Stream = sensing.Stream
	// Device identifies the smartphone or the smartwatch.
	Device = sensing.Device
	// Context is a fine-grained usage context (Section V-E).
	Context = sensing.Context
)

// Devices.
const (
	DevicePhone = sensing.DevicePhone
	DeviceWatch = sensing.DeviceWatch
)

// Fine-grained contexts.
const (
	ContextStationaryUse = sensing.ContextStationaryUse
	ContextMovingUse     = sensing.ContextMovingUse
	ContextPhoneOnTable  = sensing.ContextPhoneOnTable
	ContextOnVehicle     = sensing.ContextOnVehicle
)

// NewPopulation draws n synthetic users deterministically from a seed.
func NewPopulation(n int, seed int64) (*Population, error) {
	return sensing.NewPopulation(n, seed)
}

// Features: windowing and the paper's feature vectors.
type (
	// WindowSample is one authentication observation: both devices'
	// features for the same time window.
	WindowSample = features.WindowSample
	// CollectOptions configures synthetic data collection for a user.
	CollectOptions = features.CollectOptions
)

// Collect records sessions for a user and extracts windowed features from
// both devices — the enrollment / free-form collection campaign.
func Collect(u *User, opt CollectOptions) ([]WindowSample, error) {
	return features.Collect(u, opt)
}

// Record generates one session on both devices and pairs their windows
// into WindowSamples labelled with the session's user, context and day.
func Record(sess Session, windowSeconds float64) ([]WindowSample, error) {
	return features.Record(sess, windowSeconds)
}

// Pair extracts the windows of one session's phone and watch streams —
// say, after the watch stream crossed a lossy link — and pairs them index
// by index, up to the shorter stream's windows.
func Pair(sess Session, phone, watch *Stream, windowSeconds float64) ([]WindowSample, error) {
	return features.Pair(sess, phone, watch, windowSeconds)
}

// Context detection.
type (
	// Detector is the trained user-agnostic context classifier.
	Detector = ctxdetect.Detector
	// DetectorConfig tunes detector training.
	DetectorConfig = ctxdetect.Config
	// LabeledContextVector is one context-detection training observation.
	LabeledContextVector = ctxdetect.LabeledVector
)

// ContextTrainingData converts window samples into context training
// vectors (phone features labelled with coarse context).
func ContextTrainingData(samples []WindowSample) []LabeledContextVector {
	return ctxdetect.FromSamples(samples)
}

// TrainContextDetector fits the user-agnostic Random Forest context
// detector on labelled vectors from users other than the one to be
// authenticated.
func TrainContextDetector(data []LabeledContextVector, cfg DetectorConfig) (*Detector, error) {
	return ctxdetect.Train(data, cfg)
}

// Core: training, authentication, response, retraining.
type (
	// Mode selects devices (phone vs phone+watch) and context dispatch.
	Mode = core.Mode
	// TrainConfig parameterizes the training module.
	TrainConfig = core.TrainConfig
	// ModelBundle is the set of downloadable authentication models.
	ModelBundle = core.ModelBundle
	// Authenticator is the phone-side testing module.
	Authenticator = core.Authenticator
	// ResponseModule escalates rejected windows to deny/lock actions.
	ResponseModule = core.ResponseModule
	// ResponsePolicy tunes the response module.
	ResponsePolicy = core.ResponsePolicy
	// Enrollment tracks the enrollment phase's convergence.
	Enrollment = core.Enrollment
	// AuditLog is a tamper-evident, hash-chained record of decisions.
	AuditLog = core.AuditLog
	// AuditEntry is one sealed audit record.
	AuditEntry = core.AuditEntry
)

// ActionLock is the response module's verdict that locks the device.
const ActionLock = core.ActionLock

// Train fits the per-context (or unified) authentication models from the
// owner's windows and the anonymized population's windows — the cloud
// training module of Section IV-A3.
func Train(legit, impostor []WindowSample, cfg TrainConfig) (*ModelBundle, error) {
	return core.Train(legit, impostor, cfg)
}

// NewAuthenticator assembles the phone-side testing module.
func NewAuthenticator(det *Detector, bundle *ModelBundle) (*Authenticator, error) {
	return core.NewAuthenticator(det, bundle)
}

// NewResponseModule builds a response module with the given policy.
func NewResponseModule(policy ResponsePolicy) *ResponseModule {
	return core.NewResponseModule(policy)
}

// NewEnrollment builds an enrollment tracker with the paper's defaults.
func NewEnrollment() *Enrollment {
	return core.NewEnrollment()
}

// NewAuditLog builds an empty tamper-evident decision log.
func NewAuditLog() *AuditLog {
	return core.NewAuditLog()
}

// VerifyAuditChain checks an exported audit log's hash chain, returning
// the index of the first corrupted entry or -1 when intact.
func VerifyAuditChain(entries []AuditEntry) int {
	return core.VerifyAuditChain(entries)
}

// Transport: the cloud Authentication Server and the watch link.
type (
	// AuthServer is the cloud training service.
	AuthServer = transport.Server
	// AuthServerConfig configures the server; Key, Detector and Store are
	// required.
	AuthServerConfig = transport.ServerConfig
	// AuthClient is the smartphone's view of the server.
	AuthClient = transport.Client
	// AuthClientConfig configures the client.
	AuthClientConfig = transport.ClientConfig
	// TrainParams are the client-side training knobs.
	TrainParams = transport.TrainParams
	// BluetoothLink simulates the lossy watch-to-phone channel.
	BluetoothLink = transport.BluetoothLink
	// AuthServerStats is the server's population and persistence summary.
	AuthServerStats = transport.ServerStats
	// BusyError is the typed train-queue-full rejection; errors.As against
	// it to honour the server's retry hint.
	BusyError = transport.BusyError
	// RedirectError is the typed rejection of a write that belongs to
	// another cluster node, carrying the owner's client address; errors.As
	// and re-issue the write there.
	RedirectError = transport.RedirectError
	// AuthDecision is the server-side authenticate verdict.
	AuthDecision = transport.AuthDecision
	// AuthSession is a kept-alive client connection: many round trips —
	// including batched authentication — over one dialed, authenticated
	// flow. Create one with AuthClient.NewSession.
	AuthSession = transport.Session
	// WireStats is the wire-protocol slice of AuthServerStats: request,
	// batch-window and stream counters.
	WireStats = transport.WireStats
)

// Autonomous drift-triggered retraining: the closed loop of the paper's
// Fig. 7. Every authenticate decision updates a per-user confidence EWMA;
// a user whose EWMA sinks below the threshold is a retrain candidate. The
// server feeds its candidates to a coalesced, budgeted scheduler with no
// client or operator action; a phone-side flow holds a DriftMonitor of
// its own and retrains when Observe reports a candidate. Both run the
// same rule with the same ServerRetrainConfig.
type (
	// ServerRetrainConfig enables and tunes the drift-retraining loop;
	// pass a pointer in AuthServerConfig.Retrain.
	ServerRetrainConfig = retrain.Config
	// DriftMonitor is the epsilon_CS rule of Section V-I: per-user
	// confidence EWMA over accepted windows, candidate below the
	// threshold once enough windows have accumulated.
	DriftMonitor = retrain.Monitor
)

// NewDriftMonitor builds a drift monitor; zero cfg fields take the
// paper's defaults (epsilon_CS = 0.2).
func NewDriftMonitor(cfg ServerRetrainConfig) *DriftMonitor {
	return retrain.NewMonitor(cfg)
}

// Durable storage: the server's crash-recoverable population store and
// versioned model registry.
type (
	// PopulationStore is the WAL-backed store of anonymized population
	// windows and published models. Every Authentication Server needs one
	// in AuthServerConfig.Store; opened on a directory that outlives the
	// process it makes the server durable across restarts.
	PopulationStore = store.Store
	// StoreOptions tunes the store: shard count (enroll throughput scales
	// with independent WAL shards), snapshot cadence (compaction runs on
	// background workers), model-version retention, and fsync policy.
	StoreOptions = store.Options
	// CASStats reports the content-addressed chunk store's occupancy
	// (model bundles and snapshot window blobs, deduplicated by chunk).
	CASStats = cas.Stats
)

// ErrNoModel is what the store's registry reads (LatestDetector,
// LatestModel, ...) return when nothing has been published under the key;
// any other error is a registry failure. Test with errors.Is.
var ErrNoModel = store.ErrNoModel

// OpenStore creates or recovers a durable population store rooted at dir:
// it loads the latest snapshot, replays the write-ahead log on top
// (truncating any torn tail from a crash), and is then ready for appends.
// The caller owns the store and must Close it after closing any server
// using it.
func OpenStore(dir string, opt StoreOptions) (*PopulationStore, error) {
	return store.Open(dir, opt)
}

// NewAuthServer builds the cloud Authentication Server.
func NewAuthServer(cfg AuthServerConfig) (*AuthServer, error) {
	return transport.NewServer(cfg)
}

// NewAuthClient builds a client for the Authentication Server.
func NewAuthClient(cfg AuthClientConfig) (*AuthClient, error) {
	return transport.NewClient(cfg)
}

// Replication: leader–follower WAL shipping between population stores,
// so the cloud role of Fig. 1 survives machine loss and scales its read
// traffic across replicas. This is the transport layer of the cluster
// below; an Authentication Server is replicated by making it a
// ClusterNode, not by wiring these to it directly.
type (
	// ReplicationLeader streams the store's WAL to followers.
	ReplicationLeader = replication.Leader
	// ReplicationLeaderConfig configures a leader.
	ReplicationLeaderConfig = replication.LeaderConfig
	// ReplicationFollower applies a leader's stream into a local store.
	ReplicationFollower = replication.Follower
	// ReplicationFollowerConfig configures a follower.
	ReplicationFollowerConfig = replication.FollowerConfig
)

// NewReplicationLeader builds the leader side of replication over an
// open population store; call Serve on a separate replication address.
func NewReplicationLeader(cfg ReplicationLeaderConfig) (*ReplicationLeader, error) {
	return replication.NewLeader(cfg)
}

// StartReplicationFollower connects to a leader and keeps the local
// store converged with it until Close.
func StartReplicationFollower(cfg ReplicationFollowerConfig) (*ReplicationFollower, error) {
	return replication.StartFollower(cfg)
}

// Cluster: shard ownership across Authentication Servers — the one
// topology a replicated deployment has. Each node owns a subset of the
// store's FNV shards — it is the only node assigning sequence numbers
// there — and replicates to every peer over the full mesh, so write
// throughput scales with node count while reads stay serveable anywhere.
// A primary with read replicas is the map in which one node owns every
// shard; ClusterNode.TakeOver is how a replica claims the shards of an
// owner that is gone. Clients route writes by shard with a cached,
// versioned ShardMap (AuthClientConfig.RouteByShard) and chase redirects
// when the map moves under them.
type (
	// ClusterNode is one cluster member: replication leader for its own
	// store, mesh follower of every peer, and the transport server's
	// ShardRouter. Wire it via AuthServerConfig.Router.
	ClusterNode = cluster.Node
	// ClusterNodeConfig configures a node.
	ClusterNodeConfig = cluster.NodeConfig
	// ClusterNodeInfo is one node's address triple as carried in the map.
	ClusterNodeInfo = cluster.NodeInfo
	// ClusterShardMap is the versioned shard→owner routing artifact.
	ClusterShardMap = cluster.ShardMap
)

// NewClusterNode validates the config and builds a cluster node. An
// AuthServer over the same store serves what the mesh replicates with no
// wiring between the two beyond AuthServerConfig.Router (and, for stats,
// AuthServerConfig.ReplicationInfo).
func NewClusterNode(cfg ClusterNodeConfig) (*ClusterNode, error) {
	return cluster.NewNode(cfg)
}

// BalancedShardMap builds a version-1 map spreading shards round-robin
// across the given nodes — the bootstrap artifact a fresh cluster
// starts from.
func BalancedShardMap(nodes []ClusterNodeInfo, shards int) (*ClusterShardMap, error) {
	return cluster.BalancedMap(nodes, shards)
}

// FetchClusterMap retrieves a peer's current shard map from its control
// endpoint — how a joining node or an operator tool bootstraps.
func FetchClusterMap(ctrlAddr string, key []byte, timeout time.Duration) (*ClusterShardMap, error) {
	return cluster.FetchMap(ctrlAddr, key, timeout)
}

// DetectorRegistryKey is the reserved registry identifier the published
// context detector lives under. It routes like any other key — it
// hashes to exactly one shard, so in a cluster only the node owning
// ClusterShardMap.ShardForUser of this key publishes the detector;
// every other node receives it over the mesh.
const DetectorRegistryKey = store.DetectorKey

// AnonymizeUser maps a device-side user ID to the server-side pseudonym
// under which the population store keys it — the hash routing clients
// shard by.
func AnonymizeUser(userID string) string {
	return transport.AnonymizeUser(userID)
}
