// Live shard handoff: the acquiring node drives ownership transfer
// without stopping the cluster.
//
//  1. Seal: ask the current owner to freeze the shard. The owner flips
//     the shard's seal flag and reads its cursor atomically under the
//     shard lock, so the cursor covers every write it ever acked; from
//     here its clients get brief busy responses.
//  2. Converge: wait until the local store's cursor for the shard
//     reaches the sealed cursor. The data arrives over the existing
//     replication mesh — a warm node is usually already there, a cold
//     joiner catches up through the chunked-snapshot path.
//  3. Publish: adopt a Version+1 map owning the shard and push it to
//     every peer. The old owner unseals on installing it (the shard
//     moved away); stale clients redirect and refresh.
//
// If the acquirer dies between seal and publish, the owner's seal
// timer expires and it resumes serving writes — no acked write is lost
// either way, because sealed writes were never acked.
//
// Takeover is the same publish with nobody left to seal: when an owner's
// process is gone, a survivor claims its shards with steps 1 and 2
// skipped (TakeOver). It is an operator's verb, not a failure detector's:
// nothing in the cluster decides on its own that a node is dead.
package cluster

import (
	"fmt"
	"time"
)

// Join adds this node to the cluster map (owning no shards yet) and
// publishes the new map to every peer, which starts their mesh
// followers toward it. No-op when the node is already a member.
func (n *Node) Join(timeout time.Duration) error {
	im := n.cur.Load()
	if im.self >= 0 {
		return nil
	}
	next := im.m.Clone()
	next.Version++
	next.Nodes = append(next.Nodes, n.self)
	if !n.installMap(next) {
		return fmt.Errorf("cluster: join lost a map race, retry")
	}
	return n.pushMap(next, nil, timeout)
}

// AcquireShards takes ownership of the given shards with a live
// handoff, batched: seal all, converge all, then publish one Version+1
// map — one redirect storm instead of one per shard. timeout bounds the
// whole operation (0 means 30s); it must stay under the owners' seal
// timeout or the seals expire before the map publishes.
func (n *Node) AcquireShards(shards []int, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	im := n.cur.Load()
	if im.self < 0 {
		return errNotMember
	}
	m := im.m

	// Seal each shard at its current owner and collect frozen cursors.
	cursors := make(map[int]uint64, len(shards))
	for _, shard := range shards {
		if shard < 0 || shard >= m.Shards() {
			return fmt.Errorf("cluster: shard %d out of range (%d shards)", shard, m.Shards())
		}
		owner := m.OwnerOf(shard)
		if owner == im.self {
			continue // already ours
		}
		payload, err := ctrlRequest(m.Nodes[owner].CtrlAddr, n.key, encodeSealRequest(sealRequest{shard: shard}), ctrlCursor, time.Until(deadline))
		if err != nil {
			return fmt.Errorf("cluster: seal shard %d at node %d: %w", shard, owner, err)
		}
		cursor, err := decodeCursorResponse(payload)
		if err != nil {
			return fmt.Errorf("cluster: seal shard %d at node %d: %w", shard, owner, err)
		}
		cursors[shard] = cursor
	}
	if len(cursors) == 0 {
		return nil
	}

	// Converge: the mesh follower from each owner delivers everything up
	// to the sealed cursor; nothing new can be acked behind it.
	for {
		seqs := n.st.ShardLastSeqs()
		behind := 0
		for shard, cursor := range cursors {
			if seqs[shard] < cursor {
				behind++
			}
		}
		if behind == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: handoff timed out with %d shards still converging", behind)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Durability barrier: replicated applies may run with relaxed sync
	// (store.Options.ReplicaNoSync) because the owner holds every record
	// durably — a role this node is about to assume. Sync each acquired
	// shard before publishing so "acknowledged means durable" holds from
	// the first write this node serves.
	for shard := range cursors {
		if err := n.st.SyncShard(shard); err != nil {
			return fmt.Errorf("cluster: sync shard %d before takeover: %w", shard, err)
		}
	}

	// Publish: one Version+1 map owning every acquired shard. Local
	// install first — the moment peers or clients learn the new map,
	// this node must already be serving those shards.
	next := m.Clone()
	next.Version++
	for shard := range cursors {
		next.Owner[shard] = int32(im.self)
	}
	if !n.installMap(next) {
		return fmt.Errorf("cluster: handoff lost a map race, retry")
	}
	return n.pushMap(next, nil, time.Until(deadline))
}

// TakeOver claims every shard whose owner's process is gone: it probes
// each other owner's control endpoint and, for those that do not answer
// within timeout (0 means 5s), syncs the local copy of their shards and
// publishes a Version+1 map owning them. There is nothing to seal and
// nothing more to converge — the local store holds whatever the dead
// owner shipped, and writes it acked but had not shipped yet are lost.
//
// An owner that answers keeps its shards, and when every owner answers
// the call fails: moving shards between live nodes is AcquireShards'
// job, which loses nothing. The caller — an operator — must issue it on
// one survivor only (two concurrent takeovers publish conflicting maps
// of the same version) and only when the owner is down for good: a
// partitioned owner that is still serving clients keeps acking writes
// the new map orphans. A restarted ex-owner must adopt the new map
// before it serves (FetchMap from a peer, as authserver does at start).
func (n *Node) TakeOver(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = defaultCtrlTimeout
	}
	im := n.cur.Load()
	if im.self < 0 {
		return errNotMember
	}
	m := im.m
	next := m.Clone()
	next.Version++
	dead := make(map[string]bool)
	answered := ""
	for owner, info := range m.Nodes {
		shards := m.OwnedBy(owner)
		if owner == im.self || len(shards) == 0 {
			continue
		}
		if _, err := FetchMap(info.CtrlAddr, n.key, timeout); err == nil {
			answered = info.CtrlAddr
			continue
		}
		dead[info.CtrlAddr] = true
		for _, shard := range shards {
			// The same durability barrier as a handoff: mesh copies may
			// have been applied without a per-record fsync.
			if err := n.st.SyncShard(shard); err != nil {
				return fmt.Errorf("cluster: sync shard %d before takeover: %w", shard, err)
			}
			next.Owner[shard] = int32(im.self)
		}
	}
	if len(dead) == 0 {
		if answered != "" {
			return fmt.Errorf("cluster: takeover refused: owner %s answers; move its shards with AcquireShards", answered)
		}
		return nil // every shard is already ours
	}
	if !n.installMap(next) {
		return fmt.Errorf("cluster: takeover lost a map race, retry")
	}
	n.logf("cluster: took over the shards of %d unreachable owner(s) at map v%d", len(dead), next.Version)
	return n.pushMap(next, dead, timeout)
}

// pushMap delivers a map to every peer's control endpoint except those
// in skip (by control address). A push failure is reported but does not
// roll back: peers that missed it converge on the next exchange (a
// redirect chase, FetchMap, or a later push), and stale peers only cost
// redirects, never correctness.
func (n *Node) pushMap(m *ShardMap, skip map[string]bool, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = defaultCtrlTimeout
	}
	frame := encodeMapFrame(ctrlMapPush, m)
	var firstErr error
	for _, info := range m.Nodes {
		if info.CtrlAddr == n.self.CtrlAddr || skip[info.CtrlAddr] {
			continue
		}
		if _, err := ctrlRequest(info.CtrlAddr, n.key, frame, ctrlOK, timeout); err != nil {
			n.logf("cluster: push map v%d to %s: %v", m.Version, info.CtrlAddr, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
