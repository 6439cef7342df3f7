package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"smarteryou/internal/binio"
	"smarteryou/internal/features"
)

// Binary payload format (format byte 0x01). The WindowSample block
// encoding lives in internal/features (codec.go) and is shared with the
// wire protocol's envelope; the decode cursor is binio.Reader.
//
//	record payload:
//	  [0]    format byte (binFormatV1)
//	  [1]    op byte (1 enroll, 2 replace, 3 publish-model)
//	  [2:10] sequence number, uint64 LE
//	  user   uvarint length + bytes
//	  enroll/replace: uvarint sample count, then each WindowSample
//	  publish-model:  uvarint version, uvarint length + bundle JSON
//
// The format byte is the version switch: decodeRecord refuses any other
// value with ErrUnsupportedFormat rather than guessing. The same
// WindowSample encoding is shared by the replication full-snapshot frame
// below and by snapshot.cas window blobs (cas_state.go).

// binFormatV1 tags version 1 of the binary record payload and of the
// replication full-snapshot body.
const binFormatV1 = 0x01

// Binary op bytes, mapped to/from the string ops of walRecord.Op.
const (
	binOpEnroll  = 1
	binOpReplace = 2
	binOpPublish = 3
)

func opByte(op string) (byte, error) {
	switch op {
	case opEnroll:
		return binOpEnroll, nil
	case opReplace:
		return binOpReplace, nil
	case opPublish:
		return binOpPublish, nil
	default:
		return 0, fmt.Errorf("store: unknown op %q", op)
	}
}

func opString(b byte) (string, error) {
	switch b {
	case binOpEnroll:
		return opEnroll, nil
	case binOpReplace:
		return opReplace, nil
	case binOpPublish:
		return opPublish, nil
	default:
		return "", fmt.Errorf("unknown op byte %d", b)
	}
}

// binaryPayloadSize bounds a record's v1 binary encoding from above.
func binaryPayloadSize(rec walRecord) int {
	size := 10 + binio.UvarintLen(uint64(len(rec.User))) + len(rec.User) + binary.MaxVarintLen64
	size += features.EncodedSampleListSize(rec.Samples)
	return size + binary.MaxVarintLen64 + len(rec.Bundle)
}

// appendBinaryPayload appends a record in the v1 binary format to buf.
func appendBinaryPayload(buf []byte, rec walRecord) ([]byte, error) {
	op, err := opByte(rec.Op)
	if err != nil {
		return nil, err
	}
	buf = append(buf, binFormatV1, op)
	buf = binio.AppendU64(buf, rec.Seq)
	buf = binio.AppendString(buf, rec.User)
	switch op {
	case binOpEnroll, binOpReplace:
		buf = features.AppendSampleListBinary(buf, rec.Samples)
	case binOpPublish:
		buf = binio.AppendUvarint(buf, uint64(rec.Version))
		buf = binio.AppendBytes(buf, rec.Bundle)
	}
	return buf, nil
}

// decodeBinaryPayload decodes a v1 binary payload (the caller has
// already checked the format byte). The payload must be fully consumed —
// trailing bytes mean a framing bug or corruption. Each window's user id
// that equals the record's user shares its string.
func decodeBinaryPayload(payload []byte) (walRecord, error) {
	r := binio.NewReader(payload)
	rec, n := readPayloadHead(r, nil)
	if n > 0 {
		rec.Samples = features.ReadSamplesBinary(r, make([]features.WindowSample, 0, n), n, rec.User)
	}
	if err := endPayload(r); err != nil {
		return walRecord{}, err
	}
	rec.Bundle = append([]byte(nil), rec.Bundle...) // outlives payload
	return rec, nil
}

// checkBinaryPayload refuses what decodeBinaryPayload refuses, but keeps
// no window: the record comes back without Samples, and its Bundle
// aliases payload.
func checkBinaryPayload(payload []byte, users map[string][]features.WindowSample) (walRecord, error) {
	r := binio.NewReader(payload)
	rec, n := readPayloadHead(r, users)
	features.SkipSamplesBinary(r, n)
	if err := endPayload(r); err != nil {
		return walRecord{}, err
	}
	return rec, nil
}

// readPayloadHead reads a v1 payload up to its windows: the format byte,
// the op, the sequence number, the user (resolved against users, see
// storedUser) and a publish's version and bundle, which aliases the
// payload. For an enroll or a replace it returns the window count and
// leaves r at the first window.
func readPayloadHead(r *binio.Reader, users map[string][]features.WindowSample) (walRecord, int) {
	if fb := r.Byte(); fb != binFormatV1 && r.Err() == nil {
		r.Fail("unsupported binary format %d", fb)
	}
	op, err := opString(r.Byte())
	if err != nil && r.Err() == nil {
		r.Fail("%s", err)
	}
	rec := walRecord{Op: op}
	rec.Seq = r.U64()
	rec.User = storedUser(users, r.StrBytes())
	n := 0
	switch op {
	case opEnroll, opReplace:
		n = features.ReadSampleCount(r)
	case opPublish:
		rec.Version = int(r.Uvarint())
		rec.Bundle = r.StrBytes()
	}
	if r.Err() != nil {
		return walRecord{}, 0
	}
	return rec, n
}

// endPayload reports r's decode error, or bytes left after the record.
func endPayload(r *binio.Reader) error {
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%d trailing bytes after record", r.Remaining())
	}
	return nil
}

// storedUser returns the pseudonym b spells: the string users already
// holds for it, as its key and as the user id of its windows, when the
// user has windows that carry it, else a copy of b. A decoded window
// whose user id is its record's user takes the record's string, so a
// follower and a replay at open find the key for a user whose windows
// came that way, from the user's second record on.
func storedUser(users map[string][]features.WindowSample, b []byte) string {
	if w := users[string(b)]; len(w) > 0 && w[0].UserID == string(b) {
		return w[0].UserID
	}
	return string(b)
}

// Binary full-snapshot format — the body of a replication full-snapshot
// frame (ShardSnapshotBytes → InstallShardSnapshot); never a file:
//
//	[0]    format byte (binFormatV1)
//	[1:9]  last sequence number, uint64 LE
//	uvarint user count; per user: id (uvarint len + bytes),
//	        uvarint sample count, samples (WindowSample encoding above)
//	uvarint model-user count; per user: id, uvarint version count,
//	        per version: uvarint version, uvarint len + bundle JSON
//	[last 4] CRC32 (IEEE) of everything before it, big-endian
//
// The trailing checksum guards the body end to end, independent of the
// replication frame that carries it.

func encodeBinarySnapshot(snap snapshot) []byte {
	size := 9 + 8
	for id, samples := range snap.Users {
		size += 2*binary.MaxVarintLen64 + len(id)
		size += features.EncodedSampleListSize(samples)
	}
	for id, versions := range snap.Models {
		size += 2*binary.MaxVarintLen64 + len(id)
		for _, mv := range versions {
			size += 2*binary.MaxVarintLen64 + len(mv.Bundle)
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, binFormatV1)
	buf = binio.AppendU64(buf, snap.LastSeq)
	buf = binio.AppendUvarint(buf, uint64(len(snap.Users)))
	for id, samples := range snap.Users {
		buf = binio.AppendString(buf, id)
		buf = features.AppendSampleListBinary(buf, samples)
	}
	buf = binio.AppendUvarint(buf, uint64(len(snap.Models)))
	for id, versions := range snap.Models {
		buf = binio.AppendString(buf, id)
		buf = binio.AppendUvarint(buf, uint64(len(versions)))
		for _, mv := range versions {
			buf = binio.AppendUvarint(buf, uint64(mv.Version))
			buf = binio.AppendBytes(buf, mv.Bundle)
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func decodeBinarySnapshot(data []byte) (snapshot, error) {
	if len(data) < 13 {
		return snapshot{}, fmt.Errorf("store: binary snapshot too short (%d bytes)", len(data))
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc := crc32.ChecksumIEEE(body); crc != sum {
		return snapshot{}, fmt.Errorf("store: binary snapshot checksum mismatch")
	}
	r := binio.NewReader(body)
	if fb := r.Byte(); fb != binFormatV1 {
		return snapshot{}, fmt.Errorf("store: unsupported snapshot format %d", fb)
	}
	snap := snapshot{
		Users:  make(map[string][]features.WindowSample),
		Models: make(map[string][]ModelVersion),
	}
	snap.LastSeq = r.U64()
	nUsers := r.Uvarint()
	for i := uint64(0); i < nUsers && r.Err() == nil; i++ {
		id := r.Str()
		samples := features.ReadSampleListBinary(r, id)
		if r.Err() == nil {
			snap.Users[id] = samples
		}
	}
	nModels := r.Uvarint()
	for i := uint64(0); i < nModels && r.Err() == nil; i++ {
		id := r.Str()
		nv := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if nv > uint64(r.Remaining()/2)+1 {
			r.Fail("version count %d exceeds %d remaining bytes", nv, r.Remaining())
			break
		}
		versions := make([]ModelVersion, 0, nv)
		for j := uint64(0); j < nv && r.Err() == nil; j++ {
			v := int(r.Uvarint())
			blob := r.Bytes()
			versions = append(versions, ModelVersion{Version: v, Bundle: blob})
		}
		if r.Err() == nil {
			snap.Models[id] = versions
		}
	}
	if err := r.Err(); err != nil {
		return snapshot{}, fmt.Errorf("store: decode binary snapshot: %w", err)
	}
	return snap, nil
}
