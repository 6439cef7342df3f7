package replication

import (
	"fmt"
	"io"

	"smarteryou/internal/binio"
	"smarteryou/internal/cas"
	"smarteryou/internal/store"
	"smarteryou/internal/wire"
)

// Every replication message, both ways, is one sealed frame of
// internal/wire: length-prefixed and HMAC-SHA256-tagged under the
// pre-shared key over its type's name and its payload. A forged or
// corrupted frame, a record or an ack as much as a handshake, fails its
// MAC and ends the session before anything in it is applied.
//
// Record frames embed the WAL record payload verbatim — first byte is
// the store codec's format byte — so the follower logs exactly the bytes
// the leader logged.

// Frame type bytes.
const (
	frameHello    = 0x68 // 'h': follower -> leader handshake
	frameWelcome  = 0x77 // 'w': leader -> follower handshake reply
	frameSnapshot = 0x73 // 's': leader -> follower snapshot chunk
	frameRecord   = 0x72 // 'r': leader -> follower one WAL record
	frameAck      = 0x61 // 'a': follower -> leader applied cursor
	frameError    = 0x65 // 'e': fatal protocol error, then close

	// Delta catch-up frames (protocol version 2): instead of a full
	// snapshot, the leader ships the content-addressed snapshot body plus
	// only the chunks the follower did not declare in its hello.
	frameDeltaBody   = 0x64 // 'd': leader -> follower snapshot.cas body
	frameDeltaChunks = 0x63 // 'c': leader -> follower batch of chunk payloads
	frameDeltaDone   = 0x66 // 'f': leader -> follower delta complete, install
)

// names are the replication channel's MAC names. No other channel uses
// them, so under the one key a deployment shares, a replication frame
// verifies nowhere else and no other channel's frame verifies here.
var names = wire.NewNames(map[byte]string{
	frameHello:       "repl.hello",
	frameWelcome:     "repl.welcome",
	frameSnapshot:    "repl.snapshot",
	frameRecord:      "repl.record",
	frameAck:         "repl.ack",
	frameError:       "repl.error",
	frameDeltaBody:   "repl.delta-body",
	frameDeltaChunks: "repl.delta-chunks",
	frameDeltaDone:   "repl.delta-done",
})

// maxFrameBytes bounds one replication frame body: a WAL record at the
// store's own limit, with room for the frame header and the shard and
// cursor varints ahead of it. Snapshot chunks and delta chunk batches are
// cut near snapshotChunkBytes, so anything larger is corruption.
const maxFrameBytes = store.MaxRecordBytes + 64

// readBufferBytes is each end's read buffer: under load many record
// frames, or many acks, arrive in one segment and are one read.
const readBufferBytes = 64 << 10

// snapshotChunkBytes is the snapshot streaming chunk size: big enough to
// amortize framing, small enough to interleave progress and bound
// per-frame memory.
const snapshotChunkBytes = 1 << 20

// conn is one end of a replication session: the frame layer's connection
// and the buffer outgoing frames are sealed in. One goroutine may read
// while another writes.
type conn struct {
	*wire.Conn
	out []byte
}

func newConn(rw io.ReadWriter, key []byte) *conn {
	return &conn{Conn: wire.NewConn(rw, key, maxFrameBytes, readBufferBytes)}
}

// send seals one frame of type tb in the write buffer, its payload f
// appended by appendPayload, and writes the pending frames once
// wire.FlushBytes of them are waiting.
func send[F any](c *conn, tb byte, appendPayload func([]byte, F) []byte, f F) error {
	start := len(c.out)
	c.out = appendPayload(wire.Begin(c.out, tb), f)
	if err := c.Seal(c.out[start:], names); err != nil {
		c.out = c.out[:start]
		return err
	}
	if len(c.out) >= wire.FlushBytes {
		return c.flush()
	}
	return nil
}

// flush writes the pending frames, if any, with one Write.
func (c *conn) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	var err error
	c.out, err = c.Flush(c.out)
	return err
}

// finish is every decoder's epilogue: the first decode error, else any
// trailing bytes.
func finish(r *binio.Reader, what string) error {
	if r.Err() == nil && r.Remaining() != 0 {
		r.Fail("%d trailing bytes", r.Remaining())
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("replication: bad %s frame: %w", what, err)
	}
	return nil
}

// readSeqs decodes a uvarint-counted list of uvarint cursors, bounding
// the count by the remaining bytes (each entry is at least one byte).
func readSeqs(r *binio.Reader) []uint64 {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.Fail("cursor count %d exceeds %d remaining bytes", n, r.Remaining())
		return nil
	}
	out := make([]uint64, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		out = append(out, r.Uvarint())
	}
	return out
}

func appendSeqs(buf []byte, seqs []uint64) []byte {
	buf = binio.AppendUvarint(buf, uint64(len(seqs)))
	for _, s := range seqs {
		buf = binio.AppendUvarint(buf, s)
	}
	return buf
}

// helloFrame is the follower's opening message. Version 2 hellos also
// declare the chunk hashes the follower's CAS already holds, so a delta
// catch-up can skip shipping them.
type helloFrame struct {
	version int
	seqs    []uint64 // per-shard durable cursors; length = shard count
	hashes  []cas.Hash
}

func appendHello(buf []byte, h helloFrame) []byte {
	buf = append(buf, byte(h.version))
	buf = appendSeqs(buf, h.seqs)
	if h.version >= 2 {
		buf = binio.AppendUvarint(buf, uint64(len(h.hashes)))
		for _, hash := range h.hashes {
			buf = append(buf, hash[:]...)
		}
	}
	return buf
}

func decodeHello(payload []byte) (helloFrame, error) {
	r := binio.NewReader(payload)
	h := helloFrame{version: int(r.Byte())}
	h.seqs = readSeqs(r)
	if h.version >= 2 && r.Err() == nil {
		n := r.Uvarint()
		if n > uint64(r.Remaining()/cas.HashSize) {
			r.Fail("hash count %d exceeds %d remaining bytes", n, r.Remaining())
		}
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			h.hashes = append(h.hashes, cas.ReadHash(r))
		}
	}
	return h, finish(r, "hello")
}

// welcomeFrame is the leader's handshake reply.
type welcomeFrame struct {
	version int
	// clientAddr is the leader's advertised client-facing address; the
	// follower's server redirects writes there.
	clientAddr string
	seqs       []uint64 // the leader's per-shard durable cursors
}

func appendWelcome(buf []byte, w welcomeFrame) []byte {
	buf = append(buf, byte(w.version))
	buf = binio.AppendString(buf, w.clientAddr)
	return appendSeqs(buf, w.seqs)
}

func decodeWelcome(payload []byte) (welcomeFrame, error) {
	r := binio.NewReader(payload)
	w := welcomeFrame{version: int(r.Byte())}
	w.clientAddr = r.Str()
	w.seqs = readSeqs(r)
	return w, finish(r, "welcome")
}

// recordFrame carries one WAL record payload for a shard.
type recordFrame struct {
	shard   int
	payload []byte // store WAL payload, format byte first
}

func appendRecord(buf []byte, f recordFrame) []byte {
	buf = binio.AppendUvarint(buf, uint64(f.shard))
	return append(buf, f.payload...)
}

// decodeRecord decodes a record frame; its payload aliases the input.
func decodeRecord(payload []byte) (recordFrame, error) {
	r := binio.NewReader(payload)
	f := recordFrame{shard: int(r.Uvarint())}
	f.payload = r.Rest()
	if r.Err() == nil && len(f.payload) == 0 {
		r.Fail("empty record payload")
	}
	return f, finish(r, "record")
}

// snapshotChunk is one slice of a shard snapshot. The final chunk sets
// last and carries the snapshot's covered sequence number so the
// follower can ack it after installing.
type snapshotChunk struct {
	shard   int
	last    bool
	lastSeq uint64
	data    []byte
}

func appendSnapshotChunk(buf []byte, c snapshotChunk) []byte {
	buf = binio.AppendUvarint(buf, uint64(c.shard))
	if c.last {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binio.AppendUvarint(buf, c.lastSeq)
	return append(buf, c.data...)
}

// decodeSnapshotChunk decodes a snapshot chunk; its data aliases the
// input.
func decodeSnapshotChunk(payload []byte) (snapshotChunk, error) {
	r := binio.NewReader(payload)
	c := snapshotChunk{shard: int(r.Uvarint())}
	switch flag := r.Byte(); flag {
	case 0:
	case 1:
		c.last = true
	default:
		r.Fail("snapshot flag %d", flag)
	}
	c.lastSeq = r.Uvarint()
	c.data = r.Rest()
	return c, finish(r, "snapshot")
}

// deltaBody carries one shard's content-addressed snapshot body — the
// exact bytes of its snapshot.cas file, manifests only, no chunk data.
type deltaBody struct {
	shard int
	data  []byte
}

func appendDeltaBody(buf []byte, d deltaBody) []byte {
	buf = binio.AppendUvarint(buf, uint64(d.shard))
	return append(buf, d.data...)
}

// decodeDeltaBody decodes a delta body; its data aliases the input.
func decodeDeltaBody(payload []byte) (deltaBody, error) {
	r := binio.NewReader(payload)
	d := deltaBody{shard: int(r.Uvarint())}
	d.data = r.Rest()
	if r.Err() == nil && len(d.data) == 0 {
		r.Fail("empty delta body")
	}
	return d, finish(r, "delta body")
}

// deltaChunks is one batch of chunk payloads for a shard's in-flight
// delta: per chunk a raw hash and a length-prefixed payload. The
// receiver verifies each payload against its hash when storing it.
type deltaChunks struct {
	shard  int
	hashes []cas.Hash
	data   [][]byte
}

func appendDeltaChunks(buf []byte, d deltaChunks) []byte {
	buf = binio.AppendUvarint(buf, uint64(d.shard))
	buf = binio.AppendUvarint(buf, uint64(len(d.hashes)))
	for i, h := range d.hashes {
		buf = append(buf, h[:]...)
		buf = binio.AppendBytes(buf, d.data[i])
	}
	return buf
}

// decodeDeltaChunks decodes a chunk batch; each chunk's data is a copy.
func decodeDeltaChunks(payload []byte) (deltaChunks, error) {
	r := binio.NewReader(payload)
	d := deltaChunks{shard: int(r.Uvarint())}
	n := r.Uvarint()
	if r.Err() == nil && n > uint64(r.Remaining()/(cas.HashSize+1)) {
		r.Fail("chunk count %d exceeds %d remaining bytes", n, r.Remaining())
	}
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		d.hashes = append(d.hashes, cas.ReadHash(r))
		d.data = append(d.data, r.Bytes())
	}
	return d, finish(r, "delta chunks")
}

// deltaDone closes one shard's delta: every needed chunk has been sent
// (or was already declared), the follower installs body + chunks and
// jumps its cursor to lastSeq.
type deltaDone struct {
	shard   int
	lastSeq uint64
}

func appendDeltaDone(buf []byte, d deltaDone) []byte {
	buf = binio.AppendUvarint(buf, uint64(d.shard))
	return binio.AppendUvarint(buf, d.lastSeq)
}

func decodeDeltaDone(payload []byte) (deltaDone, error) {
	r := binio.NewReader(payload)
	d := deltaDone{shard: int(r.Uvarint()), lastSeq: r.Uvarint()}
	return d, finish(r, "delta done")
}

// ackFrame acknowledges a durable (shard, seq) on the follower.
type ackFrame struct {
	shard int
	seq   uint64
}

func appendAck(buf []byte, a ackFrame) []byte {
	buf = binio.AppendUvarint(buf, uint64(a.shard))
	return binio.AppendUvarint(buf, a.seq)
}

func decodeAck(payload []byte) (ackFrame, error) {
	r := binio.NewReader(payload)
	a := ackFrame{shard: int(r.Uvarint()), seq: r.Uvarint()}
	return a, finish(r, "ack")
}

// An error frame carries a fatal message before the sender closes.

func appendErrorFrame(buf []byte, msg string) []byte {
	return binio.AppendString(buf, msg)
}

func decodeErrorFrame(payload []byte) (string, error) {
	r := binio.NewReader(payload)
	msg := r.Str()
	return msg, finish(r, "error")
}
