package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// encodeBinaryPayload is a record's binary payload on its own, in a
// buffer of its own.
func encodeBinaryPayload(rec walRecord) ([]byte, error) {
	return appendBinaryPayload(make([]byte, 0, binaryPayloadSize(rec)), rec)
}

// encodeRecord is a record framed for the WAL in a buffer of its own.
func encodeRecord(rec walRecord) ([]byte, error) { return appendRecord(nil, rec) }

// TestRecordBuiltInPlaceMatchesFramedPayload pins the WAL bytes of the
// one-buffer encoder: for every op, a record equals its payload encoded on
// its own and then framed, the way the replication path frames a shipped
// payload.
func TestRecordBuiltInPlaceMatchesFramedPayload(t *testing.T) {
	for _, rec := range []walRecord{
		{Seq: 1, Op: opEnroll, User: "user-0042", Samples: fakeSamples("user-0042", 8, 2)},
		{Seq: 1 << 40, Op: opReplace, User: "u"},
		{Seq: 3, Op: opPublish, User: "anon-00", Version: 300, Bundle: json.RawMessage(`{"mode":{}}`)},
	} {
		got, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("encodeRecord %s: %v", rec.Op, err)
		}
		payload, err := encodeBinaryPayload(rec)
		if err != nil {
			t.Fatalf("encodeBinaryPayload %s: %v", rec.Op, err)
		}
		if want := appendFrame(nil, payload); !reflect.DeepEqual(got, want) {
			t.Errorf("%s record built in place differs from its framed payload", rec.Op)
		}
	}
}

func TestDecodeRecordEveryTruncationPoint(t *testing.T) {
	full, err := encodeRecord(walRecord{Seq: 7, Op: opReplace, User: "u", Samples: fakeSamples("u", 2, 3)})
	if err != nil {
		t.Fatalf("encodeRecord: %v", err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := decodeRecord(full[:cut]); !errors.Is(err, ErrTruncatedRecord) {
			t.Fatalf("cut at %d/%d: err = %v, want ErrTruncatedRecord", cut, len(full), err)
		}
	}
	rec, n, err := decodeRecord(full)
	if err != nil {
		t.Fatalf("full record: %v", err)
	}
	if n != len(full) || rec.Seq != 7 || rec.Op != opReplace {
		t.Errorf("decoded (seq=%d op=%s n=%d), want (7 %s %d)", rec.Seq, rec.Op, n, opReplace, len(full))
	}
}

func TestDecodeRecordEveryBitFlipIsCorrupt(t *testing.T) {
	full, err := encodeRecord(walRecord{Seq: 1, Op: opEnroll, User: "u"})
	if err != nil {
		t.Fatalf("encodeRecord: %v", err)
	}
	for i := range full {
		mutated := append([]byte(nil), full...)
		mutated[i] ^= 0x01
		_, _, err := decodeRecord(mutated)
		if err == nil {
			// Flipping a length byte can only be accepted if the frame
			// still parses end-to-end with a matching CRC — impossible for
			// a single bit flip: a shorter length mis-frames the CRC, a
			// longer one truncates.
			t.Errorf("bit flip at byte %d went undetected", i)
			continue
		}
		if !errors.Is(err, ErrTruncatedRecord) && !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("bit flip at byte %d: unexpected error class %v", i, err)
		}
	}
}

func TestDecodeRecordRejectsImplausibleLength(t *testing.T) {
	var b [recordHeaderSize]byte
	binary.BigEndian.PutUint32(b[0:4], MaxRecordBytes+1)
	if _, _, err := decodeRecord(b[:]); !errors.Is(err, ErrCorruptRecord) {
		t.Errorf("oversized length err = %v, want ErrCorruptRecord", err)
	}
}

// frame wraps a raw payload in the length+CRC record header, bypassing
// the encoder's own validation.
func frame(payload []byte) []byte {
	buf := make([]byte, recordHeaderSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[recordHeaderSize:], payload)
	return buf
}

func TestDecodeRecordRejectsUnknownOp(t *testing.T) {
	// The encoder refuses unknown ops outright.
	if _, err := encodeRecord(walRecord{Seq: 1, Op: "drop-table"}); err == nil {
		t.Errorf("encodeRecord accepted an unknown op")
	}
	// Binary payload with an unknown op byte.
	bin := []byte{binFormatV1, 0x7F, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, _, err := decodeRecord(frame(bin)); !errors.Is(err, ErrCorruptRecord) {
		t.Errorf("unknown binary op err = %v, want ErrCorruptRecord", err)
	}
}

// TestDecodeRecordUnknownFormatIsNotDamage pins the line between damage
// and a foreign format: an intact frame whose payload format byte this
// build does not know — '{', the retired JSON records, included — is
// ErrUnsupportedFormat, never one of the two classes replay truncates on.
func TestDecodeRecordUnknownFormatIsNotDamage(t *testing.T) {
	for _, payload := range [][]byte{{0x7F, 1, 2, 3}, []byte(`{"seq":1,"op":"enroll"}`)} {
		_, _, err := decodeRecord(frame(payload))
		if !errors.Is(err, ErrUnsupportedFormat) || errors.Is(err, ErrCorruptRecord) || errors.Is(err, ErrTruncatedRecord) {
			t.Errorf("format byte %#x: err = %v, want only ErrUnsupportedFormat", payload[0], err)
		}
	}
}

// TestBinaryRecordRoundTrip pins the binary codec: encode → decode must
// be the identity, and the encoding must be much smaller than JSON.
// TestDecodedEnrollSharesTheUserID checks that the windows of a decoded
// enroll or replace record share the record's user id instead of each
// holding a copy: WAL replay and a follower's apply make no string per
// window.
func TestDecodedEnrollSharesTheUserID(t *testing.T) {
	for _, op := range []string{opEnroll, opReplace} {
		payload, err := encodeBinaryPayload(walRecord{Seq: 7, Op: op, User: "user-0042", Samples: fakeSamples("user-0042", 5, 1)})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decodeBinaryPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Samples) != 5 {
			t.Fatalf("%s: decoded %d windows, want 5", op, len(rec.Samples))
		}
		for i, w := range rec.Samples {
			if w.UserID != rec.User || unsafe.StringData(w.UserID) != unsafe.StringData(rec.User) {
				t.Errorf("%s: window %d user id %q is a copy of the record's %q", op, i, w.UserID, rec.User)
			}
		}
	}
}

func TestBinaryRecordRoundTrip(t *testing.T) {
	recs := []walRecord{
		{Seq: 1, Op: opEnroll, User: "u", Samples: fakeSamples("u", 3, 2)},
		{Seq: 2, Op: opReplace, User: "u", Samples: fakeSamples("u", 1, -4.5)},
		{Seq: 3, Op: opEnroll, User: "empty"},
		{Seq: 1<<63 + 17, Op: opPublish, User: "m", Version: 42, Bundle: []byte(`{"k":"v"}`)},
	}
	for _, rec := range recs {
		buf, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		got, n, err := decodeRecord(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(buf) {
			t.Errorf("consumed %d of %d bytes", n, len(buf))
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
		}
	}

	// The size win the codec exists for: a window sample must encode ~5x
	// smaller than its JSON form. Real feature values use the full float64
	// precision (unlike short test literals), so compare with those.
	sample := walRecord{Seq: 1, Op: opEnroll, User: "u", Samples: fakeSamples("u", 1, math.Pi)}
	bin, err := encodeRecord(sample)
	if err != nil {
		t.Fatal(err)
	}
	jsonPayload, err := json.Marshal(sample)
	if err != nil {
		t.Fatal(err)
	}
	if 5*len(bin) > 2*len(jsonPayload) {
		t.Errorf("binary record is %d bytes vs %d JSON — expected at least 2.5x smaller", len(bin), len(jsonPayload))
	}
}
