// Package cluster partitions ownership of the store's FNV shards across
// N writable nodes, so the cloud-server role of the paper (Lee & Lee,
// DSN 2017, Fig. 1) scales its write throughput with node count instead
// of being capped by one machine's WAL fsync budget.
//
// Every node runs the full replication mesh: it is a replication.Leader
// for its own store and a replication.Follower of every peer, so each
// node converges on the complete population (reads — authenticate,
// model fetch, impostor sampling — are served anywhere). What is
// partitioned is *write authority*: each shard has exactly one owner at
// a time, and only the owner assigns fresh sequence numbers to it. The
// mesh is safe because the store's ApplyReplicated is idempotent — a
// node receiving its own records echoed back (or the same record via
// two peers) skips anything at or below its durable cursor — and
// per-connection delivery is in sequence order, so no gap can form.
//
// The ShardMap is the versioned routing artifact: shard index (the
// stable FNV hash of the anonymized user id, store.ShardIndex) → owning
// node. Clients cache it and route writes directly; a stale client hits
// the wrong node, gets a redirect carrying the owner's address, and
// refreshes. Rebalancing moves ownership with a live handoff: seal the
// shard at the old owner (local writes freeze atomically with the
// cursor read), wait for the new owner to converge to the cursor over
// the existing replication stream (a cold node catches up through the
// chunked-snapshot path), then publish a higher-version map. No acked
// write is ever lost: sealed writes were never acked, and the cursor
// covers everything that was.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"smarteryou/internal/binio"
	"smarteryou/internal/store"
)

// ErrBadMap is returned when a shard-map blob fails to decode.
var ErrBadMap = errors.New("cluster: malformed shard map")

// NodeInfo is one node's addresses as carried in the shard map.
type NodeInfo struct {
	// ClientAddr is the node's transport listener — where clients send
	// requests and where redirects point.
	ClientAddr string `json:"client_addr"`
	// ReplAddr is the node's replication listener — where peers' mesh
	// followers dial.
	ReplAddr string `json:"repl_addr"`
	// CtrlAddr is the node's cluster-control listener — where peers send
	// seal/map-push requests during handoff.
	CtrlAddr string `json:"ctrl_addr"`
}

// ShardMap assigns every store shard to an owning node. Higher Version
// always wins; a map is immutable once published (rebalances build a
// clone with Version+1).
type ShardMap struct {
	Version uint64     `json:"version"`
	Nodes   []NodeInfo `json:"nodes"`
	// Owner maps shard index → index into Nodes.
	Owner []int32 `json:"owner"`
}

// Validate checks internal consistency.
func (m *ShardMap) Validate() error {
	if m == nil {
		return fmt.Errorf("%w: nil map", ErrBadMap)
	}
	if len(m.Nodes) == 0 {
		return fmt.Errorf("%w: no nodes", ErrBadMap)
	}
	if len(m.Owner) == 0 {
		return fmt.Errorf("%w: no shards", ErrBadMap)
	}
	for shard, owner := range m.Owner {
		if owner < 0 || int(owner) >= len(m.Nodes) {
			return fmt.Errorf("%w: shard %d owned by node %d of %d", ErrBadMap, shard, owner, len(m.Nodes))
		}
	}
	return nil
}

// Shards reports the shard count the map covers.
func (m *ShardMap) Shards() int { return len(m.Owner) }

// OwnerOf returns the owning node index for a shard.
func (m *ShardMap) OwnerOf(shard int) int { return int(m.Owner[shard]) }

// ShardForUser routes an (already anonymized) user id to its shard —
// the same FNV-1a placement the store itself uses.
func (m *ShardMap) ShardForUser(anonUser string) int {
	return store.ShardIndex(anonUser, len(m.Owner))
}

// OwnedBy lists the shards a node owns, in ascending order.
func (m *ShardMap) OwnedBy(node int) []int {
	var out []int
	for shard, owner := range m.Owner {
		if int(owner) == node {
			out = append(out, shard)
		}
	}
	return out
}

// Clone deep-copies the map (the copy is safe to mutate before
// publishing it at a higher version).
func (m *ShardMap) Clone() *ShardMap {
	return &ShardMap{
		Version: m.Version,
		Nodes:   append([]NodeInfo(nil), m.Nodes...),
		Owner:   append([]int32(nil), m.Owner...),
	}
}

// ClientAddrs lists every node's client-facing address in node order —
// the shape the transport layer serves to routing clients.
func (m *ShardMap) ClientAddrs() []string {
	out := make([]string, len(m.Nodes))
	for i, n := range m.Nodes {
		out[i] = n.ClientAddr
	}
	return out
}

// BalancedMap assigns shards round-robin across the nodes at Version 1 —
// the bring-up default before any rebalance.
func BalancedMap(nodes []NodeInfo, shards int) (*ShardMap, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: no nodes", ErrBadMap)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("%w: %d shards", ErrBadMap, shards)
	}
	m := &ShardMap{Version: 1, Nodes: append([]NodeInfo(nil), nodes...), Owner: make([]int32, shards)}
	for shard := range m.Owner {
		m.Owner[shard] = int32(shard % len(nodes))
	}
	return m, nil
}

// Binary codec: a fixed magic+version header, uvarint-framed fields, and
// a CRC32 (IEEE) tail, so a map shipped over the control wire or stored
// in a registry detects truncation and corruption the same way the WAL
// does.
const (
	mapMagic   = "SMAP"
	mapCodecV1 = 1
)

// AppendBinary encodes the map, appending to dst.
func (m *ShardMap) AppendBinary(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, mapMagic...)
	dst = append(dst, mapCodecV1)
	dst = binary.AppendUvarint(dst, m.Version)
	dst = binary.AppendUvarint(dst, uint64(len(m.Nodes)))
	for _, n := range m.Nodes {
		dst = binio.AppendString(dst, n.ClientAddr)
		dst = binio.AppendString(dst, n.ReplAddr)
		dst = binio.AppendString(dst, n.CtrlAddr)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Owner)))
	for _, owner := range m.Owner {
		dst = binary.AppendUvarint(dst, uint64(owner))
	}
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc32.ChecksumIEEE(dst[start:]))
	return append(dst, tail[:]...)
}

// DecodeShardMap decodes and validates one encoded map.
func DecodeShardMap(data []byte) (*ShardMap, error) {
	if len(data) < len(mapMagic)+1+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadMap, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadMap)
	}
	if string(body[:len(mapMagic)]) != mapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadMap)
	}
	if body[len(mapMagic)] != mapCodecV1 {
		return nil, fmt.Errorf("%w: unknown codec version %d", ErrBadMap, body[len(mapMagic)])
	}
	r := binio.NewReader(body[len(mapMagic)+1:])
	m := &ShardMap{Version: r.Uvarint()}
	nodes := r.Uvarint()
	if nodes > uint64(r.Remaining()) {
		r.Fail("node count %d exceeds %d remaining bytes", nodes, r.Remaining())
	}
	for i := uint64(0); i < nodes && r.Err() == nil; i++ {
		m.Nodes = append(m.Nodes, NodeInfo{
			ClientAddr: r.Str(),
			ReplAddr:   r.Str(),
			CtrlAddr:   r.Str(),
		})
	}
	shards := r.Uvarint()
	if shards > uint64(r.Remaining())+1 {
		r.Fail("shard count %d exceeds %d remaining bytes", shards, r.Remaining())
	}
	for i := uint64(0); i < shards && r.Err() == nil; i++ {
		m.Owner = append(m.Owner, int32(r.Uvarint()))
	}
	if r.Err() == nil && r.Remaining() != 0 {
		r.Fail("%d trailing bytes", r.Remaining())
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMap, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
