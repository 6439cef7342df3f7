package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
)

// Client is the smartphone's view of the Authentication Server: enroll,
// download the context detector, request (re)training, and fetch models.
type Client struct {
	addr    string
	key     []byte
	timeout time.Duration
	dial    DialFunc
	retry   busyPolicy
	pool    connPool
	// route, when non-nil, caches the cluster shard map and steers write
	// requests straight to the owning node.
	route *routeState

	// cacheMu guards modelCache: the last fetched bundle per user, keyed
	// by content hash for ETag-style conditional fetches (the server
	// answers "unchanged" instead of resending an identical bundle).
	cacheMu    sync.Mutex
	modelCache map[string]cachedModel
}

// cachedModel is one FetchModel result kept for conditional re-fetches.
type cachedModel struct {
	version int
	hash    string
	bundle  *core.ModelBundle
}

// connPool caches idle connections per server address. The server holds
// a connection open across requests (serveConn loops), so a round trip
// normally reuses a warm connection, its buffers and its keyed HMAC
// instead of paying a TCP connect/teardown — which otherwise dominates
// small-request CPU.
type connPool struct {
	mu   sync.Mutex
	idle map[string][]*wireConn
}

// poolMaxIdlePerAddr bounds cached connections per address; a burst
// beyond it just closes the extras on return.
const poolMaxIdlePerAddr = 32

func (p *connPool) get(addr string) *wireConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	conns := p.idle[addr]
	if len(conns) == 0 {
		return nil
	}
	conn := conns[len(conns)-1]
	p.idle[addr] = conns[:len(conns)-1]
	return conn
}

// put returns a connection that completed a round trip to the pool. One
// whose reader holds bytes behind the response it read is out of step
// with its server and is closed instead. The check is best effort: it
// sees stray bytes that arrived with the response, not ones still in
// flight.
func (p *connPool) put(addr string, conn *wireConn) {
	p.mu.Lock()
	if len(p.idle[addr]) >= poolMaxIdlePerAddr || conn.Buffered() > 0 {
		p.mu.Unlock()
		_ = conn.nc.Close()
		return
	}
	if p.idle == nil {
		p.idle = make(map[string][]*wireConn)
	}
	p.idle[addr] = append(p.idle[addr], conn)
	p.mu.Unlock()
}

// drain closes every cached connection.
func (p *connPool) drain() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, conns := range idle {
		for _, conn := range conns {
			_ = conn.nc.Close()
		}
	}
}

// DialFunc establishes one client connection within timeout. Overriding
// it wraps or counts the client's connections (the benchmark meters bytes
// and syscalls this way) without touching the protocol.
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// ClientConfig configures a client.
type ClientConfig struct {
	// Addr is the server's TCP address.
	Addr string
	// Key is the pre-shared HMAC key (must match the server's).
	Key []byte
	// Timeout bounds each round trip (default 30 s — the paper notes the
	// system "does not pose a high requirement on the communication
	// delay").
	Timeout time.Duration
	// Dial overrides how connections are established (default
	// net.DialTimeout).
	Dial DialFunc
	// BusyRetries caps how many times a busy response (saturated training
	// pool, full retrain queue) is retried before the BusyError surfaces.
	// 0 means the default of 3; negative disables retries entirely. The
	// first retry honors the server's hint exactly; each further retry
	// doubles it, up to 8 s.
	BusyRetries int
	// RouteByShard makes the client fetch and cache the cluster's
	// versioned shard map (from Addr) and send each write straight to the
	// node that owns the user's shard, refreshing the map when a redirect
	// reveals it is stale or the owner it names cannot be reached (the
	// write that found it unreachable fails; the next one routes by the
	// fresh map). Reads still go to Addr. Leave unset against a
	// single server (it serves no map), or to keep redirects visible to the
	// caller — each carries the owner's address and needs no map.
	RouteByShard bool
}

// maxBusyBackoff caps the exponential backoff between busy retries.
const maxBusyBackoff = 8 * time.Second

// busyPolicy is the capped-exponential backoff applied to busy responses.
type busyPolicy struct {
	retries int
	cap     time.Duration
}

// newBusyPolicy resolves the retry-count default; clients pass
// maxBusyBackoff as the cap, tests a shorter one.
func newBusyPolicy(retries int, maxBackoff time.Duration) busyPolicy {
	if retries == 0 {
		retries = 3
	}
	if retries < 0 {
		retries = 0
	}
	return busyPolicy{retries: retries, cap: maxBackoff}
}

// NewClient builds a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("transport: client needs a server address")
	}
	if len(cfg.Key) == 0 {
		return nil, fmt.Errorf("transport: client needs an HMAC key")
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	dial := cfg.Dial
	if dial == nil {
		dial = net.DialTimeout
	}
	c := &Client{
		addr:    cfg.Addr,
		key:     cfg.Key,
		timeout: timeout,
		dial:    dial,
		retry:   newBusyPolicy(cfg.BusyRetries, maxBusyBackoff),
	}
	if cfg.RouteByShard {
		c.route = &routeState{}
	}
	return c, nil
}

// run executes do and, when the server answers busy (a saturated training
// pool or a full retrain queue), retries with capped exponential backoff
// seeded by the server's carried hint: the first retry sleeps exactly the
// hint, each further one doubles it up to the policy cap. Busy means the
// request never started, so a retry cannot double-run it. Every
// busy-capable request — client and session alike — funnels through here
// so backoff behaviour stays in one place.
func (p busyPolicy) run(do func() error) error {
	err := do()
	for attempt := 0; attempt < p.retries && err != nil; attempt++ {
		var busy *BusyError
		if !errors.As(err, &busy) {
			break
		}
		backoff := busy.RetryAfter << attempt
		if backoff <= 0 || backoff > p.cap {
			backoff = p.cap
		}
		time.Sleep(backoff)
		err = do()
	}
	return err
}

// roundTrip sends one request to the client's configured address and
// decodes the response payload into out; see withConn for how
// connections are reused. Use NewSession to pin one connection for
// authentication.
func (c *Client) roundTrip(reqType string, payload any, out any) error {
	return c.withConn(c.addr, func(conn *wireConn) error {
		return conn.request(c.timeout, reqType, payload, out)
	})
}

// withConn runs one exchange on a connection to addr. It reuses a pooled
// connection when one is available; a pooled connection that turns out
// dead (the server restarted or closed it while idle) is discarded and
// the exchange runs once more on a fresh dial.
func (c *Client) withConn(addr string, do func(*wireConn) error) error {
	if conn := c.pool.get(addr); conn != nil {
		err := do(conn)
		if err == nil || isResponseError(err) {
			c.pool.put(addr, conn)
			return err
		}
		_ = conn.nc.Close()
		if !isStaleConnError(err) {
			return err
		}
	}
	nc, err := c.dial("tcp", addr, c.timeout)
	if err != nil {
		return fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	conn := newWireConn(nc, c.key)
	if err := do(conn); err != nil {
		if isResponseError(err) {
			c.pool.put(addr, conn)
		} else {
			_ = nc.Close()
		}
		return err
	}
	c.pool.put(addr, conn)
	return nil
}

// isResponseError reports whether err was carried in a well-formed
// server response (busy, redirect, remote failure) — the connection
// itself completed a round trip and stays good for reuse.
func isResponseError(err error) bool {
	var remote *RemoteError
	var busy *BusyError
	var redirect *RedirectError
	return errors.As(err, &busy) || errors.As(err, &redirect) || errors.As(err, &remote)
}

// isStaleConnError reports whether a round-trip failure looks like a
// pooled connection that died while idle — the one case worth one retry
// on a fresh dial. Protocol-level errors (busy, redirect, server error,
// bad frames) mean the connection worked and must surface as-is.
func isStaleConnError(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// Close releases the client's pooled connections. The client stays
// usable — later requests dial fresh — so Close is an idle-resource
// release, not a shutdown.
func (c *Client) Close() error {
	c.pool.drain()
	return nil
}

// asRedirect unwraps a RedirectError.
func asRedirect(err error) (*RedirectError, bool) {
	var re *RedirectError
	if errors.As(err, &re) {
		return re, true
	}
	return nil, false
}

// Enroll uploads feature windows collected during the enrollment phase.
// Against a cluster (RouteByShard) the upload goes straight to the node
// owning the user's shard; a write caught in a shard handoff backs off
// briefly and retries against the new owner.
func (c *Client) Enroll(userID string, samples []features.WindowSample) (stored int, err error) {
	return c.enroll(userID, false, samples)
}

// ReplaceEnrollment uploads the user's latest behaviour, discarding the
// stale windows — the retraining upload of Section V-I.
func (c *Client) ReplaceEnrollment(userID string, samples []features.WindowSample) (stored int, err error) {
	return c.enroll(userID, true, samples)
}

func (c *Client) enroll(userID string, replace bool, samples []features.WindowSample) (stored int, err error) {
	err = c.routedWrite(userID, func(conn *wireConn) error {
		stored, err = conn.enroll(c.timeout, userID, replace, samples)
		return err
	})
	return stored, err
}

// FetchDetector downloads the user-agnostic context-detection model.
func (c *Client) FetchDetector() (*ctxdetect.Detector, error) {
	var det ctxdetect.Detector
	if err := c.roundTrip(TypeFetchDetector, nil, &det); err != nil {
		return nil, err
	}
	return &det, nil
}

// TrainParams are the client-visible knobs of a training request; they
// travel embedded in it.
type TrainParams struct {
	Mode        core.Mode `json:"mode"`
	Rho         float64   `json:"rho,omitempty"`
	MaxPerClass int       `json:"max_per_class,omitempty"`
	TargetFRR   float64   `json:"target_frr,omitempty"`
	Seed        int64     `json:"seed,omitempty"`
}

// Train asks the server to train authentication models for the user and
// returns the downloaded bundle.
func (c *Client) Train(userID string, p TrainParams) (*core.ModelBundle, error) {
	bundle, _, err := c.TrainVersioned(userID, p)
	return bundle, err
}

// TrainVersioned is Train plus the registry version the server published
// the new model under.
// Busy responses (saturated training pool) are retried with capped
// exponential backoff seeded by the server's hint — busy means the job
// never started, so a retry cannot double-train.
func (c *Client) TrainVersioned(userID string, p TrainParams) (*core.ModelBundle, int, error) {
	req := trainRequest{UserID: userID, TrainParams: p}
	var resp trainResponse
	err := c.routedWrite(userID, func(conn *wireConn) error {
		return conn.request(c.timeout, TypeTrain, req, &resp)
	})
	if err != nil {
		return nil, 0, err
	}
	if resp.Bundle == nil {
		return nil, 0, fmt.Errorf("transport: server returned no model bundle")
	}
	return resp.Bundle, resp.Version, nil
}

// FetchModel downloads a previously trained bundle from the server's
// model registry without retraining — how a phone re-acquires its model
// after a reinstall, or rolls back to an earlier version. Version 0 asks
// for the latest; the version actually served is returned.
//
// The client remembers the last bundle fetched per user together with
// its content hash and sends the hash along on the next fetch; when the
// registry still holds the same bytes the server answers "unchanged" and
// the cached bundle is returned without the body crossing the wire.
func (c *Client) FetchModel(userID string, version int) (*core.ModelBundle, int, error) {
	req := fetchModelRequest{UserID: userID, Version: version}
	c.cacheMu.Lock()
	cached, haveCached := c.modelCache[userID]
	c.cacheMu.Unlock()
	if haveCached && (version == 0 || version == cached.version) {
		req.IfHash = cached.hash
	}
	var resp fetchModelResponse
	err := c.roundTrip(TypeFetchModel, req, &resp)
	if err != nil {
		return nil, 0, err
	}
	if resp.Unchanged {
		if !haveCached || resp.Hash != cached.hash {
			return nil, 0, fmt.Errorf("transport: server reported unchanged for a bundle not in this client's cache")
		}
		return cached.bundle, resp.Version, nil
	}
	if resp.Bundle == nil {
		return nil, 0, fmt.Errorf("transport: server returned no model bundle")
	}
	if resp.Hash != "" {
		c.cacheMu.Lock()
		if c.modelCache == nil {
			c.modelCache = make(map[string]cachedModel)
		}
		c.modelCache[userID] = cachedModel{version: resp.Version, hash: resp.Hash, bundle: resp.Bundle}
		c.cacheMu.Unlock()
	}
	return resp.Bundle, resp.Version, nil
}

// AuthDecision is the server-side authentication outcome.
type AuthDecision struct {
	// Context is the detector's coarse context label.
	Context string
	// ContextConfidence is the detector's vote fraction.
	ContextConfidence float64
	// Score is the classifier's confidence score CS(k).
	Score float64
	// Accepted reports whether the window was attributed to the user.
	Accepted bool
}

// Authenticate asks the server to classify one feature window with the
// user's current model — the cloud-side check for services that outsource
// the testing module. The server answers even while its training queue is
// saturated.
func (c *Client) Authenticate(userID string, sample features.WindowSample) (d AuthDecision, err error) {
	err = c.withConn(c.addr, func(conn *wireConn) error {
		d, err = conn.authenticate(c.timeout, userID, sample)
		return err
	})
	return d, err
}

// decisionsFromResponses converts wire decisions to the public type.
func decisionsFromResponses(in []authResponse) []AuthDecision {
	out := make([]AuthDecision, len(in))
	for i, d := range in {
		out[i] = AuthDecision(d)
	}
	return out
}

// AuthenticateBatch classifies many windows for one user in a single
// round trip: one envelope, one HMAC verification, one model resolution
// on the server, decisions in window order. The continuous feed of
// Section IV-B arrives in bursts (a 6 s window cadence against mobile
// radio wake-ups), and batching amortizes the per-request overhead across
// the burst.
func (c *Client) AuthenticateBatch(userID string, samples []features.WindowSample) (ds []AuthDecision, err error) {
	err = c.withConn(c.addr, func(conn *wireConn) error {
		ds, err = conn.authenticateBatch(c.timeout, userID, samples)
		return err
	})
	return ds, err
}

// RequestRetrain nudges the server's drift-retrain scheduler to consider
// the user now, entering the same coalesced, budgeted queue the drift
// monitor feeds — it never triggers an immediate train. Queued reports
// whether the user is (now) in the queue; reason explains a softer
// outcome ("coalesced", "cooldown"). Busy responses (full candidate
// queue) are retried with capped exponential backoff from the carried
// hint.
func (c *Client) RequestRetrain(userID string) (queued bool, reason string, err error) {
	var resp retrainResponse
	err = c.routedWrite(userID, func(conn *wireConn) error {
		return conn.request(c.timeout, TypeRetrain, retrainRequest{UserID: userID}, &resp)
	})
	return resp.Queued, resp.Reason, err
}

// DriftStates fetches the server's most-drifted users: per-user
// confidence EWMA and last-train age, ascending EWMA (closest to the
// retrain trigger first), at most limit entries (0 means the server
// default of 100). Requires the server's retrain subsystem.
func (c *Client) DriftStates(limit int) ([]DriftStateEntry, error) {
	var resp driftStateResponse
	err := c.roundTrip(TypeDriftState, driftStateRequest{Limit: limit}, &resp)
	return resp.States, err
}

// DriftState fetches one user's drift-monitor state; ok is false when
// the server has not observed the user since its last (re)train.
func (c *Client) DriftState(userID string) (state DriftStateEntry, ok bool, err error) {
	var resp driftStateResponse
	if err := c.roundTrip(TypeDriftState, driftStateRequest{UserID: userID}, &resp); err != nil {
		return DriftStateEntry{}, false, err
	}
	if len(resp.States) == 0 {
		return DriftStateEntry{}, false, nil
	}
	return resp.States[0], true, nil
}

// Stats fetches the server's population-store summary.
func (c *Client) Stats() (users, windows int, err error) {
	var resp statsResponse
	err = c.roundTrip(TypeStats, nil, &resp)
	return resp.Users, resp.Windows, err
}

// FullStats fetches the server's population summary including its
// persistence state (WAL size, snapshot age, model versions).
func (c *Client) FullStats() (ServerStats, error) {
	var resp statsResponse
	err := c.roundTrip(TypeStats, nil, &resp)
	return resp, err
}
