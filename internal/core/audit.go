package core

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
)

// AuditEntry is one recorded authentication outcome. Entries form a hash
// chain: each entry's Digest covers its content and the previous digest,
// so any in-place modification, insertion, deletion or reordering breaks
// verification — the "cryptographic hashing operations ... to prevent the
// attackers from stealing or modifying data" of Section IV-C, applied to
// the decision history an investigator would consult after an incident.
type AuditEntry struct {
	// Seq is the entry's position in the log, starting at 0.
	Seq uint64 `json:"seq"`
	// WindowSeconds timestamps the entry in authentication windows since
	// the log began (the system's own clock; no wall time is required).
	WindowSeconds float64 `json:"t"`
	// Context, Score, Accepted mirror the decision.
	Context  string  `json:"context"`
	Score    float64 `json:"score"`
	Accepted bool    `json:"accepted"`
	// Action is the response module's verdict.
	Action string `json:"action"`
	// Digest chains this entry to its predecessor.
	Digest []byte `json:"digest"`
}

// AuditLog is an append-only, hash-chained record of authentication
// decisions. It is safe for concurrent use.
type AuditLog struct {
	mu      sync.Mutex
	entries []AuditEntry
	last    []byte
}

// NewAuditLog returns an empty log.
func NewAuditLog() *AuditLog {
	return &AuditLog{last: make([]byte, sha256.Size)}
}

// entryMAC computes the digest of an entry's content chained to prev.
func entryMAC(prev []byte, e AuditEntry) []byte {
	h := hmac.New(sha256.New, prev)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], e.Seq)
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(e.WindowSeconds))
	h.Write(buf[:])
	h.Write([]byte(e.Context))
	h.Write([]byte{0})
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(e.Score))
	h.Write(buf[:])
	if e.Accepted {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	h.Write([]byte(e.Action))
	return h.Sum(nil)
}

// Append records one decision/action pair at the given window time and
// returns the sealed entry.
func (l *AuditLog) Append(windowSeconds float64, d Decision, action Action) AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := AuditEntry{
		Seq:           uint64(len(l.entries)),
		WindowSeconds: windowSeconds,
		Context:       d.Context.String(),
		Score:         d.Score,
		Accepted:      d.Accepted,
		Action:        action.String(),
	}
	e.Digest = entryMAC(l.last, e)
	l.entries = append(l.entries, e)
	l.last = e.Digest
	return e
}

// Len returns the number of entries.
func (l *AuditLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Entries returns a copy of the log.
func (l *AuditLog) Entries() []AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]AuditEntry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Verify checks the hash chain of an exported log and returns the index of
// the first corrupted entry, or -1 if the chain is intact.
func VerifyAuditChain(entries []AuditEntry) int {
	prev := make([]byte, sha256.Size)
	for i, e := range entries {
		if e.Seq != uint64(i) {
			return i
		}
		content := e
		want := entryMAC(prev, content)
		if !hmac.Equal(want, e.Digest) {
			return i
		}
		prev = e.Digest
	}
	return -1
}
