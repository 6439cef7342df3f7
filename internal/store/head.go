package store

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"

	"smarteryou/internal/cas"
)

// The registry head: every authenticate asks whether the model it serves
// is still a user's latest (Store.LatestModelHash), so that question is
// answered without the shard lock, which a committer holds across its
// batch's apply, its CAS puts and its replication hand-off.
//
// Invariant: a shard's heads map holds, for every key of its models map,
// that key's latest (version, hash), and no other key. It is written
// under the shard lock at every change of models — a publish applied
// (live, replayed at open or replicated), recovery at open, a snapshot or
// delta install — and read without it.

// modelHead is one registry key's latest (version, hash). The fields are
// atomic words bracketed by a sequence counter (a seqlock): the one
// writer, holding the shard lock, makes seq odd, stores the fields and
// makes seq even again; a reader retries until seq reads the same even
// value before and after the fields. A publish rewrites its key's head in
// place, so it allocates nothing.
type modelHead struct {
	seq     atomic.Uint64
	version atomic.Int64
	sum     [cas.HashSize / 8]atomic.Uint64
}

func (h *modelHead) store(version int, sum cas.Hash) {
	h.seq.Add(1)
	h.version.Store(int64(version))
	for i := range h.sum {
		h.sum[i].Store(binary.LittleEndian.Uint64(sum[8*i:]))
	}
	h.seq.Add(1)
}

func (h *modelHead) load() (int, cas.Hash) {
	for {
		seq := h.seq.Load()
		if seq&1 == 0 {
			version := h.version.Load()
			var sum cas.Hash
			for i := range h.sum {
				binary.LittleEndian.PutUint64(sum[8*i:], h.sum[i].Load())
			}
			if h.seq.Load() == seq {
				return int(version), sum
			}
		}
		runtime.Gosched() // a writer is mid-store
	}
}

// head reads id's latest (version, hash) without the shard lock.
func (s *shard) head(id string) (int, cas.Hash, error) {
	if s.closed.Load() {
		return 0, cas.Hash{}, ErrClosed
	}
	h, ok := s.heads.Load(id)
	if !ok {
		return 0, cas.Hash{}, ErrNoModel
	}
	version, sum := h.(*modelHead).load()
	return version, sum, nil
}

// setHeadLocked makes id's head the latest entry of models[id]. Caller
// holds mu (or owns the shard, at open).
func (s *shard) setHeadLocked(id string) {
	vs := s.models[id]
	if len(vs) == 0 {
		s.heads.Delete(id)
		return
	}
	latest := vs[len(vs)-1]
	if h, ok := s.heads.Load(id); ok {
		h.(*modelHead).store(latest.Version, latest.Man.Sum)
		return
	}
	// A new key's head is filled in before readers can find it.
	h := new(modelHead)
	h.store(latest.Version, latest.Man.Sum)
	s.heads.Store(id, h)
}

// resetHeadsLocked rebuilds heads after models was replaced wholesale.
// Caller holds mu (or owns the shard, at open).
func (s *shard) resetHeadsLocked() {
	s.heads.Range(func(k, _ any) bool {
		if _, ok := s.models[k.(string)]; !ok {
			s.heads.Delete(k)
		}
		return true
	})
	for id := range s.models {
		s.setHeadLocked(id)
	}
}
