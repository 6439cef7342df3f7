package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smarteryou/internal/features"
)

// FuzzDecodeRecord throws arbitrary bytes at the WAL record decoder: it
// must return a record or an error — never panic, never over-allocate
// from a corrupt length prefix.
func FuzzDecodeRecord(f *testing.F) {
	valid, err := encodeRecord(walRecord{Seq: 1, Op: opEnroll, User: "u", Samples: fakeSamples("u", 1, 1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                       // torn tail
	f.Add(valid[:recordHeaderSize])                   // header only
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // implausible length
	f.Add([]byte("not a wal record at all"))
	f.Add([]byte{})

	// Complete, checksum-valid frames in payload formats this build does
	// not read: a JSON record and an unassigned format byte.
	f.Add(frame([]byte(`{"seq":1,"op":"enroll"}`)))
	f.Add(frame([]byte{0x7F, 1, 2, 3}))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrTruncatedRecord) && !errors.Is(err, ErrCorruptRecord) && !errors.Is(err, ErrUnsupportedFormat) {
				t.Fatalf("decode error outside the three sentinel classes: %v", err)
			}
			return
		}
		if n < recordHeaderSize || n > len(data) {
			t.Fatalf("decoded record claims %d bytes of a %d-byte buffer", n, len(data))
		}
		// A record that decodes must re-encode and decode to the same
		// sequence/op.
		again, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("re-encode decoded record: %v", err)
		}
		rec2, _, err := decodeRecord(again)
		if err != nil {
			t.Fatalf("decode re-encoded record: %v", err)
		}
		if rec2.Seq != rec.Seq || rec2.Op != rec.Op || rec2.User != rec.User {
			t.Fatalf("round trip changed record identity: %+v vs %+v", rec, rec2)
		}
	})
}

// FuzzDecodeBinaryPayload throws arbitrary bytes at the binary record
// decoder (codec.go): it must return a record or an error — never panic,
// and never allocate more than the buffer justifies (a corrupt sample
// count must not translate into a huge slice).
func FuzzDecodeBinaryPayload(f *testing.F) {
	for _, rec := range []walRecord{
		{Seq: 1, Op: opEnroll, User: "u", Samples: fakeSamples("u", 2, 1)},
		{Seq: 2, Op: opReplace, User: "u"},
		{Seq: 3, Op: opPublish, User: "m", Version: 7, Bundle: []byte(`{"a":1}`)},
	} {
		payload, err := encodeBinaryPayload(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	f.Add([]byte{binFormatV1})
	f.Add([]byte{binFormatV1, binOpEnroll, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeBinaryPayload(data)
		if err != nil {
			return
		}
		// A payload that decodes must survive a re-encode/decode round
		// trip unchanged. (Byte-level canonicality does not hold: the
		// varint reader accepts non-minimal encodings.)
		again, err := encodeBinaryPayload(rec)
		if err != nil {
			t.Fatalf("re-encode decoded record: %v", err)
		}
		rec2, err := decodeBinaryPayload(again)
		if err != nil {
			t.Fatalf("decode re-encoded record: %v", err)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("round trip changed record:\n in  %+v\n out %+v", rec, rec2)
		}
	})
}

// FuzzDecodeBinarySnapshot throws arbitrary bytes at the binary snapshot
// decoder: errors are fine, panics and runaway allocations are not.
func FuzzDecodeBinarySnapshot(f *testing.F) {
	snap := snapshot{
		LastSeq: 42,
		Users: map[string][]features.WindowSample{
			"a": fakeSamples("a", 2, 1),
			"b": fakeSamples("b", 1, 2),
		},
		Models: map[string][]ModelVersion{
			"a": {{Version: 1, Bundle: []byte(`{"m":1}`)}},
		},
	}
	valid := encodeBinarySnapshot(snap)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte("{}"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeBinarySnapshot(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode/decode to the same state.
		again, err := decodeBinarySnapshot(encodeBinarySnapshot(got))
		if err != nil {
			t.Fatalf("re-decode re-encoded snapshot: %v", err)
		}
		if again.LastSeq != got.LastSeq || len(again.Users) != len(got.Users) || len(again.Models) != len(got.Models) {
			t.Fatalf("snapshot round trip changed shape: %+v vs %+v", got, again)
		}
	})
}

// FuzzOpenWAL plants arbitrary bytes as a WAL file: Open must succeed by
// truncating at the damage and leave the store usable — or, when the
// bytes hold an intact record in a format this build cannot read, fail
// with ErrUnsupportedFormat and leave wal.log exactly as planted.
func FuzzOpenWAL(f *testing.F) {
	var log bytes.Buffer
	for i := uint64(1); i <= 3; i++ {
		rec, err := encodeRecord(walRecord{Seq: i, Op: opEnroll, User: "u", Samples: fakeSamples("u", 1, float64(i))})
		if err != nil {
			f.Fatal(err)
		}
		log.Write(rec)
	}
	f.Add(log.Bytes())
	f.Add(log.Bytes()[:log.Len()-4])
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Add(append(log.Bytes(), frame([]byte{0x7F, 1, 2, 3})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		walPath := filepath.Join(dir, "shard-0000", walFile)
		if err := os.MkdirAll(filepath.Dir(walPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if errors.Is(err, ErrUnsupportedFormat) {
			if after, readErr := os.ReadFile(walPath); readErr != nil || !bytes.Equal(after, data) {
				t.Fatalf("refused Open changed wal.log (read err %v): %d bytes planted, %d left", readErr, len(data), len(after))
			}
			return
		}
		if err != nil {
			t.Fatalf("Open on arbitrary wal bytes: %v", err)
		}
		// Whatever survived, the store must accept new writes.
		if err := s.Enroll("fresh", fakeSamples("fresh", 1, 0), false); err != nil {
			t.Fatalf("Enroll after recovery: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}
