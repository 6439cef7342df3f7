// Package replication moves the Authentication Server's durable state
// between machines: a leader tails every store shard's write-ahead log
// and streams the sequence-numbered records to followers, which apply
// them into their own internal/store instance. The paper's architecture
// (Lee & Lee, DSN 2017, Fig. 1) puts the population store and the
// trained-model registry on a single cloud server; at millions of users
// that server must survive machine loss and scale its read traffic
// (model downloads, outsourced authenticate calls), which is exactly
// what a replicated follower provides.
//
// Protocol (follower dials the leader's replication listener). Every
// frame, both ways, is a sealed frame of internal/wire: HMAC-SHA256
// under the pre-shared key over a type name no other channel uses.
//
//  1. The follower sends a hello carrying its shard count and each
//     shard's last durable sequence number.
//  2. The leader answers with a welcome (its advertised client address
//     and its own per-shard cursors).
//  3. Per shard, the leader replays the on-disk log tail after the
//     follower's cursor. If that tail was already compacted away, it
//     ships the shard's snapshot instead — encoded from the same
//     copy-on-write view the background compactor uses, so leader
//     appends never pause — and resumes the record stream from the
//     snapshot's sequence number.
//  4. Live records then flow as they commit. Record frames carry the WAL
//     payload verbatim (the store codec's format byte and all), so a
//     follower appends byte-identical log records; a frame that fails
//     its MAC ends the session before anything in it is applied.
//  5. The follower acknowledges each applied (shard, sequence) pair;
//     the leader tracks per-follower lag for the stats endpoint.
//
// Delivery is at-least-once: a reconnecting follower re-sends its
// durable cursors and the store skips duplicates idempotently, while a
// sequence gap aborts the stream so it restarts from the cursor. A slow
// follower whose outbound queue overflows is disconnected rather than
// allowed to stall the leader; it catches up on reconnect.
package replication

import (
	"errors"
	"fmt"
	"time"
)

// Defaults for the tunable knobs.
const (
	// defaultQueueDepth is the per-follower live-record queue; overflow
	// disconnects the follower (it reconnects and catches up from disk).
	defaultQueueDepth = 8192
	// defaultDialTimeout bounds a follower's connection attempt.
	defaultDialTimeout = 5 * time.Second
	// defaultRedialDelay spaces a follower's reconnection attempts.
	defaultRedialDelay = 250 * time.Millisecond
	// handshakeTimeout bounds each side's wait for hello/welcome.
	handshakeTimeout = 10 * time.Second
)

// Errors surfaced by the replication protocol.
var (
	// ErrShardMismatch indicates leader and follower stores disagree on
	// the shard count; replication cannot proceed (recreate the follower
	// store with the leader's shard count).
	ErrShardMismatch = errors.New("replication: shard count mismatch")
)

// Status is a point-in-time view of one replication endpoint, shaped for
// the server's stats response.
type Status struct {
	// Role is "leader" or "follower".
	Role string
	// Connected reports, on followers, whether the stream is up.
	Connected bool
	// LeaderAddr is, on followers, the leader's advertised client
	// address (learned from the welcome frame).
	LeaderAddr string
	// ShardSeqs is the local store's per-shard durable cursor.
	ShardSeqs []uint64
	// Followers reports, on leaders, each connected follower's progress.
	Followers []FollowerProgress
	// CatchupFullBytes counts, on leaders, bytes shipped via full
	// snapshot catch-ups (protocol v1 followers).
	CatchupFullBytes uint64
	// CatchupDeltaBytes counts, on leaders, bytes shipped via delta
	// catch-ups (snapshot bodies plus missing chunks).
	CatchupDeltaBytes uint64
	// CatchupDeltaSavedBytes counts, on leaders, chunk bytes a delta
	// catch-up skipped because the follower already held them.
	CatchupDeltaSavedBytes uint64
}

// FollowerProgress is one follower's acknowledged replication state as
// seen by the leader.
type FollowerProgress struct {
	// Addr is the follower connection's remote address.
	Addr string
	// Acked is the follower's last acknowledged sequence per shard.
	Acked []uint64
	// Lag is the total outstanding records across shards (leader cursor
	// minus acknowledged, summed).
	Lag uint64
}

// lagBetween sums per-shard cursor differences, clamping at zero.
func lagBetween(lead, acked []uint64) uint64 {
	var lag uint64
	for i := range lead {
		if i < len(acked) && acked[i] < lead[i] {
			lag += lead[i] - acked[i]
		}
	}
	return lag
}

// checkShardCounts verifies the two sides agree before any state moves.
func checkShardCounts(local, remote int) error {
	if local != remote {
		return fmt.Errorf("%w: local store has %d shards, peer has %d",
			ErrShardMismatch, local, remote)
	}
	return nil
}
