package retrain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"smarteryou/internal/binio"
)

// Drift-state blob format, persisted under a reserved key in the store
// registry (one rolling checkpoint, not history):
//
//	[1]  format byte (stateFormatV1)
//	[v]  uvarint user count
//	per user, sorted by id so identical states encode identical bytes:
//	  [v] uvarint id length, [n] id bytes
//	  [8] EWMA float64 bits, little-endian
//	  [1] primed flag
//	  [v] uvarint window count
//	  [8] last-train unix seconds (int64 bits), little-endian
//	[4]  CRC32 (IEEE) of everything above, big-endian
//
// At ~30 bytes per user the whole fleet's drift state stays a small
// registry blob; the decoder bounds every allocation by the bytes that
// actually remain, so a corrupt or adversarial blob cannot balloon
// memory or panic.

// stateFormatV1 is the drift-state blob format byte.
const stateFormatV1 = 0x01

// ErrCorruptState indicates a drift-state blob that is truncated,
// checksum-mismatched, or malformed.
var ErrCorruptState = errors.New("retrain: corrupt drift state")

// maxUserIDLen bounds a single user identifier inside a state blob.
const maxUserIDLen = 4 << 10

// minEntrySize is the smallest possible per-user encoding (empty id):
// 1 (id length) + 8 (EWMA) + 1 (primed) + 1 (windows) + 8 (last train).
const minEntrySize = 19

// EncodeStates serialises a drift-state snapshot. The map is typically
// Monitor.Snapshot().
func EncodeStates(states map[string]UserState) []byte {
	users := make([]string, 0, len(states))
	for u := range states {
		users = append(users, u)
	}
	sort.Strings(users)

	buf := make([]byte, 0, 1+binary.MaxVarintLen64+len(states)*32)
	buf = append(buf, stateFormatV1)
	buf = binary.AppendUvarint(buf, uint64(len(users)))
	for _, u := range users {
		st := states[u]
		buf = binary.AppendUvarint(buf, uint64(len(u)))
		buf = append(buf, u...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.EWMA))
		if st.Primed {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, st.Windows)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(st.LastTrainUnix))
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// DecodeStates parses a drift-state blob produced by EncodeStates. It
// never panics, whatever data holds.
func DecodeStates(data []byte) (map[string]UserState, error) {
	if len(data) < 1+1+4 {
		return nil, fmt.Errorf("%w: blob of %d bytes too short", ErrCorruptState, len(data))
	}
	if data[0] != stateFormatV1 {
		return nil, fmt.Errorf("%w: unknown format byte %#x", ErrCorruptState, data[0])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc := crc32.ChecksumIEEE(body); crc != binary.BigEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptState)
	}
	corrupt := func(r *binio.Reader) error { return fmt.Errorf("%w: %v", ErrCorruptState, r.Err()) }
	r := binio.NewReader(body[1:])
	count := r.Uvarint()
	if r.Err() != nil {
		return nil, corrupt(r)
	}
	if count > uint64(r.Remaining()/minEntrySize) {
		return nil, fmt.Errorf("%w: %d users cannot fit in %d bytes", ErrCorruptState, count, r.Remaining())
	}
	states := make(map[string]UserState, count)
	for i := uint64(0); i < count; i++ {
		user := r.Str()
		st := UserState{
			EWMA:   r.F64(),
			Primed: r.Byte() != 0,
		}
		st.Windows = r.Uvarint()
		st.LastTrainUnix = int64(r.U64())
		if r.Err() != nil {
			return nil, corrupt(r)
		}
		if len(user) > maxUserIDLen {
			return nil, fmt.Errorf("%w: user id of %d bytes exceeds %d", ErrCorruptState, len(user), maxUserIDLen)
		}
		if math.IsNaN(st.EWMA) || math.IsInf(st.EWMA, 0) {
			return nil, fmt.Errorf("%w: non-finite ewma for %q", ErrCorruptState, user)
		}
		if _, dup := states[user]; dup {
			return nil, fmt.Errorf("%w: duplicate user %q", ErrCorruptState, user)
		}
		states[user] = st
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptState, r.Remaining())
	}
	return states, nil
}
