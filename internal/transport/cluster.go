// Cluster routing surface: the transport layer's view of shard
// ownership. A Server configured with a ShardRouter answers writes only
// for shards it owns — anything else is redirected to the owner (or
// briefly refused while a handoff seals the shard) — and serves the
// versioned shard map so clients can route writes directly. The router
// itself (ownership state, handoff, the replication mesh) lives in
// internal/cluster; transport only asks it questions.
package transport

import (
	"sync/atomic"

	"smarteryou/internal/store"
)

// RouteDecision classifies a write against the shard map.
type RouteDecision int

const (
	// RouteLocal: this node owns the user's shard; apply the write here.
	RouteLocal RouteDecision = iota
	// RouteSealed: the shard is mid-handoff; the client should retry
	// shortly (the write was not applied).
	RouteSealed
	// RouteRemote: another node owns the shard; redirect to its address.
	RouteRemote
)

// ShardRouter is the ownership oracle a cluster node plugs into its
// server. Implementations must be safe for concurrent use from
// connection goroutines.
type ShardRouter interface {
	// RouteWrite decides where a write for the (already anonymized) user
	// belongs. addr is the owner's client address when the decision is
	// RouteRemote.
	RouteWrite(anonUser string) (decision RouteDecision, addr string)
	// ShardMapInfo snapshots the current map in the client-facing shape.
	ShardMapInfo() ShardMapInfo
	// OwnedShards reports how many shards this node currently owns out of
	// the total — the retrain scheduler partitions its global budget by
	// this fraction.
	OwnedShards() (owned, total int)
}

// ownsWrite reports whether a write the server itself originates (seed,
// scheduled retrain, drift checkpoint) for the anonymized key may land in
// the local store: always without a router, otherwise only while this node
// owns the key's shard and it is not sealed.
func (s *Server) ownsWrite(anon string) bool {
	if s.router == nil {
		return true
	}
	decision, _ := s.router.RouteWrite(anon)
	return decision == RouteLocal
}

// ShardMapInfo is the client-facing slice of the cluster's shard map:
// enough to route any write (shard = store.ShardIndex of the anonymized
// user id, owner = Owners[shard], address = Nodes[owner]).
type ShardMapInfo struct {
	Version uint64   `json:"version"`
	Nodes   []string `json:"nodes"`
	Owners  []int32  `json:"owners"`
}

// shardMapResponse is the TypeShardMap reply payload.
type shardMapResponse struct {
	Map ShardMapInfo `json:"map"`
}

// clientShardMap is the client's cached routing state.
type clientShardMap struct {
	info ShardMapInfo
}

// addrForUser routes a raw user id to the owning node's client address
// ("" when the map cannot route it).
func (m *clientShardMap) addrForUser(userID string) string {
	if m == nil || len(m.info.Owners) == 0 || len(m.info.Nodes) == 0 {
		return ""
	}
	shard := store.ShardIndex(anonymize(userID), len(m.info.Owners))
	owner := m.info.Owners[shard]
	if owner < 0 || int(owner) >= len(m.info.Nodes) {
		return ""
	}
	return m.info.Nodes[owner]
}

// routeState is the client's shard-routing machinery, present only when
// ClientConfig.RouteByShard is set.
type routeState struct {
	cached atomic.Pointer[clientShardMap]
}

// ShardMap fetches the server's current shard map (any node serves it).
// It fails on servers that are not part of a cluster.
func (c *Client) ShardMap() (ShardMapInfo, error) {
	var resp shardMapResponse
	if err := c.roundTrip(TypeShardMap, nil, &resp); err != nil {
		return ShardMapInfo{}, err
	}
	if c.route != nil {
		c.route.cached.Store(&clientShardMap{info: resp.Map})
	}
	return resp.Map, nil
}

// writeAddr resolves the address a routed write for userID should go to,
// fetching the shard map on first use. Routing failures fall back to the
// primary address — the server's own redirect is the safety net.
func (c *Client) writeAddr(userID string) string {
	if c.route == nil {
		return c.addr
	}
	m := c.route.cached.Load()
	if m == nil {
		if _, err := c.ShardMap(); err != nil {
			return c.addr
		}
		m = c.route.cached.Load()
	}
	if addr := m.addrForUser(userID); addr != "" {
		return addr
	}
	return c.addr
}

// routedWrite runs one write exchange, do, against the user's owning
// node. On a redirect (stale map: ownership moved, or a node joined) it
// refreshes the map and retries against the carried owner address; on a
// busy response the shared busy policy backs off and the retry re-routes
// — a sealed shard resolves to its new owner as soon as the handoff
// publishes the map. When the owner cannot be reached at all it may be
// dead, its shards about to be taken over, and no node is left to
// redirect: the error surfaces, and the cached map is dropped so the
// caller's next write routes by a fresh one.
func (c *Client) routedWrite(userID string, do func(*wireConn) error) error {
	if c.route == nil {
		return c.retry.run(func() error {
			return c.withConn(c.addr, do)
		})
	}
	return c.retry.run(func() error {
		err := c.withConn(c.writeAddr(userID), do)
		if re, ok := asRedirect(err); ok {
			if _, mapErr := c.ShardMap(); mapErr != nil && re.Leader == "" {
				return err
			}
			addr := re.Leader
			if addr == "" {
				addr = c.writeAddr(userID)
			}
			return c.withConn(addr, do)
		}
		if err != nil && !isResponseError(err) {
			c.route.cached.Store(nil)
		}
		return err
	})
}
