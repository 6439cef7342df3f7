package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"smarteryou/internal/features"
)

// WAL record framing: every mutation of the store is one record,
//
//	[4-byte payload length, big-endian]
//	[4-byte CRC32 (IEEE) of the payload]
//	[payload: binary-encoded walRecord (codec.go)]
//
// The length prefix makes replay O(records) without scanning for
// delimiters; the checksum detects torn writes and bit rot. The payload
// is the fixed-width binary format of codec.go, introduced by a format
// byte. A record whose checksum holds but whose format byte this build
// does not know was written whole by some other build: it is reported as
// ErrUnsupportedFormat, never treated as damage.

// Operations recorded in the WAL.
const (
	// opEnroll appends feature windows to a user's population data.
	opEnroll = "enroll"
	// opReplace discards a user's stored windows and stores the uploaded
	// ones — the retraining upload of Section V-I.
	opReplace = "replace"
	// opPublish registers a newly trained model bundle under the next
	// version number for the user.
	opPublish = "publish-model"
)

// recordHeaderSize is the fixed length+CRC prefix of every record.
const recordHeaderSize = 8

// MaxRecordBytes bounds a single WAL record. A corrupt length prefix must
// not be mistaken for a multi-gigabyte record during replay.
const MaxRecordBytes = 256 << 20

// Errors returned by the WAL record decoder.
var (
	// ErrTruncatedRecord indicates the buffer ends before the record does —
	// the torn final write of a crashed process.
	ErrTruncatedRecord = errors.New("store: truncated wal record")
	// ErrCorruptRecord indicates a record that is complete but invalid
	// (checksum mismatch, implausible length, malformed payload).
	ErrCorruptRecord = errors.New("store: corrupt wal record")
)

// walRecord is one logged mutation. Seq is globally monotonic across the
// life of the store; snapshots remember the last sequence number they
// contain so replay can skip records already compacted into the snapshot.
type walRecord struct {
	Seq     uint64
	Op      string
	User    string
	Samples []features.WindowSample
	Version int
	Bundle  json.RawMessage
}

// appendRecord appends a record to dst framed for the WAL, the payload
// encoded in place behind room left for the header. On an error dst comes
// back as it was.
func appendRecord(dst []byte, rec walRecord) ([]byte, error) {
	n := len(dst)
	dst = slices.Grow(dst, recordHeaderSize+binaryPayloadSize(rec))
	buf, err := appendBinaryPayload(dst[:n+recordHeaderSize], rec)
	if err != nil {
		return dst[:n], fmt.Errorf("store: encode wal record: %w", err)
	}
	payload := buf[n+recordHeaderSize:]
	if len(payload) > MaxRecordBytes {
		return dst[:n], fmt.Errorf("store: wal record of %d bytes exceeds limit", len(payload))
	}
	putRecordHeader(buf[n:], payload)
	return buf, nil
}

// appendFrame appends a record payload behind its length+CRC header to
// dst. The replication path uses it to re-frame shipped payloads
// byte-identically.
func appendFrame(dst, payload []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, recordHeaderSize)...)
	putRecordHeader(dst[n:], payload)
	return append(dst, payload...)
}

// putRecordHeader writes payload's length and CRC into the header at the
// start of buf.
func putRecordHeader(buf, payload []byte) {
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
}

// decodeRecord decodes the first record in b, returning the record and
// the number of bytes it occupied. ErrTruncatedRecord means b ends
// mid-record (recoverable: truncate the log there); ErrCorruptRecord means
// the bytes at the head of b are not a valid record; ErrUnsupportedFormat
// means they are an intact record (length and checksum hold) in a payload
// format this build cannot read. It never panics, whatever b holds.
func decodeRecord(b []byte) (walRecord, int, error) {
	payload, n, err := splitRecord(b)
	if err != nil {
		return walRecord{}, 0, err
	}
	rec, err := decodeBinaryPayload(payload)
	if err != nil {
		return walRecord{}, 0, fmt.Errorf("%w: %v", ErrCorruptRecord, err)
	}
	return rec, n, nil
}

// checkRecordIn refuses what decodeRecord refuses, but keeps no window
// (checkBinaryPayload): replay, the replication scan and a follower's
// check of a shipped record use it. The record's user is resolved
// against users, the shard's stored windows (storedUser).
func checkRecordIn(b []byte, users map[string][]features.WindowSample) (walRecord, int, error) {
	payload, n, err := splitRecord(b)
	if err != nil {
		return walRecord{}, 0, err
	}
	rec, err := checkBinaryPayload(payload, users)
	if err != nil {
		return walRecord{}, 0, fmt.Errorf("%w: %v", ErrCorruptRecord, err)
	}
	return rec, n, nil
}

// splitRecord checks the frame at the head of b — length, checksum and
// format byte, with decodeRecord's errors — and returns its payload and
// the bytes the record occupies.
func splitRecord(b []byte) ([]byte, int, error) {
	if len(b) < recordHeaderSize {
		return nil, 0, ErrTruncatedRecord
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n > MaxRecordBytes {
		return nil, 0, fmt.Errorf("%w: implausible length %d", ErrCorruptRecord, n)
	}
	if len(b) < recordHeaderSize+int(n) {
		return nil, 0, ErrTruncatedRecord
	}
	payload := b[recordHeaderSize : recordHeaderSize+int(n)]
	if crc := crc32.ChecksumIEEE(payload); crc != binary.BigEndian.Uint32(b[4:8]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptRecord)
	}
	if len(payload) == 0 {
		return nil, 0, fmt.Errorf("%w: empty payload", ErrCorruptRecord)
	}
	if payload[0] != binFormatV1 {
		return nil, 0, fmt.Errorf("%w: wal record payload format byte %#x", ErrUnsupportedFormat, payload[0])
	}
	return payload, recordHeaderSize + int(n), nil
}
