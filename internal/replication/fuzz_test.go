package replication

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"smarteryou/internal/cas"
	"smarteryou/internal/wire"
)

// FuzzReplFrame throws arbitrary bytes at every replication frame
// decoder. The decoders guard a network boundary: whatever arrives, they
// must fail cleanly — no panics, no out-of-range reads — and anything
// they accept must re-encode to an equivalent frame.
func FuzzReplFrame(f *testing.F) {
	key := []byte("fuzz-key")
	f.Add(appendHello(nil, helloFrame{version: 1, seqs: []uint64{0, 5, 12}}))
	f.Add(appendHello(nil, helloFrame{
		version: 2,
		seqs:    []uint64{7},
		hashes:  []cas.Hash{cas.HashOf([]byte("chunk-a")), cas.HashOf([]byte("chunk-b"))},
	}))
	f.Add(appendWelcome(nil, welcomeFrame{version: 1, clientAddr: "127.0.0.1:7600", seqs: []uint64{3}}))
	f.Add(appendRecord(nil, recordFrame{shard: 2, payload: []byte{0x01, 0xaa, 0xbb}}))
	f.Add(appendSnapshotChunk(nil, snapshotChunk{shard: 1, last: true, lastSeq: 9, data: []byte("snap")}))
	f.Add(appendSnapshotChunk(nil, snapshotChunk{shard: 0, data: bytes.Repeat([]byte{0x55}, 64)}))
	f.Add(appendAck(nil, ackFrame{shard: 3, seq: 77}))
	f.Add(appendDeltaBody(nil, deltaBody{shard: 1, data: []byte("cas body bytes")}))
	f.Add(appendDeltaChunks(nil, deltaChunks{
		shard:  2,
		hashes: []cas.Hash{cas.HashOf([]byte("payload"))},
		data:   [][]byte{[]byte("payload")},
	}))
	f.Add(appendDeltaDone(nil, deltaDone{shard: 0, lastSeq: 31}))
	f.Add(appendErrorFrame(nil, "shard count mismatch"))
	f.Add([]byte{2})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		// Whatever a decoder accepts must survive a re-encode/re-decode
		// round trip unchanged. Byte-exact equality is deliberately not
		// required: varints have non-minimal encodings the decoders accept.
		if h, err := decodeHello(payload); err == nil {
			if h2, err := decodeHello(appendHello(nil, h)); err != nil || !reflect.DeepEqual(h, h2) {
				t.Fatalf("hello did not round-trip: %v vs %v (%v)", h, h2, err)
			}
		}
		if w, err := decodeWelcome(payload); err == nil {
			if w2, err := decodeWelcome(appendWelcome(nil, w)); err != nil || !reflect.DeepEqual(w, w2) {
				t.Fatalf("welcome did not round-trip: %v vs %v (%v)", w, w2, err)
			}
		}
		if r, err := decodeRecord(payload); err == nil {
			if len(r.payload) == 0 {
				t.Fatalf("record decoder accepted an empty payload")
			}
			if r2, err := decodeRecord(appendRecord(nil, r)); err != nil || !reflect.DeepEqual(r, r2) {
				t.Fatalf("record did not round-trip (%v)", err)
			}
		}
		if c, err := decodeSnapshotChunk(payload); err == nil {
			if c2, err := decodeSnapshotChunk(appendSnapshotChunk(nil, c)); err != nil || !reflect.DeepEqual(c, c2) {
				t.Fatalf("snapshot chunk did not round-trip (%v)", err)
			}
		}
		if a, err := decodeAck(payload); err == nil {
			if a2, err := decodeAck(appendAck(nil, a)); err != nil || a != a2 {
				t.Fatalf("ack did not round-trip: %+v vs %+v (%v)", a, a2, err)
			}
		}
		if d, err := decodeDeltaBody(payload); err == nil {
			if d2, err := decodeDeltaBody(appendDeltaBody(nil, d)); err != nil || !reflect.DeepEqual(d, d2) {
				t.Fatalf("delta body did not round-trip (%v)", err)
			}
		}
		if c, err := decodeDeltaChunks(payload); err == nil {
			if len(c.hashes) != len(c.data) {
				t.Fatalf("delta chunks decoded %d hashes for %d payloads", len(c.hashes), len(c.data))
			}
			if c2, err := decodeDeltaChunks(appendDeltaChunks(nil, c)); err != nil || !reflect.DeepEqual(c, c2) {
				t.Fatalf("delta chunks did not round-trip (%v)", err)
			}
		}
		if d, err := decodeDeltaDone(payload); err == nil {
			if d2, err := decodeDeltaDone(appendDeltaDone(nil, d)); err != nil || d != d2 {
				t.Fatalf("delta done did not round-trip: %+v vs %+v (%v)", d, d2, err)
			}
		}
		_, _ = decodeErrorFrame(payload)

		// The outer framing layer must reject corruption too: seal the
		// payload as a record frame, read it back the way a session reads
		// it, then flip a byte and demand an error.
		var sent bytes.Buffer
		c := newConn(&sent, key)
		if err := send(c, frameRecord, func(dst, p []byte) []byte { return append(dst, p...) }, payload); err != nil {
			t.Fatalf("seal: %v", err)
		}
		if err := c.flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		framed := sent.Bytes()
		read := func(frame []byte) (byte, []byte, error) {
			return newConn(bytes.NewBuffer(frame), key).Read(names)
		}
		tb, got, err := read(framed)
		if err != nil || tb != frameRecord {
			t.Fatalf("round-trip read: type %#x, %v", tb, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("framed payload mutated in transit")
		}
		flipped := append([]byte(nil), framed...)
		flipped[len(flipped)-1] ^= 0xff
		if _, _, err := read(flipped); !errors.Is(err, wire.ErrBadMAC) {
			t.Fatalf("corrupted frame: %v, want a MAC failure", err)
		}
	})
}
