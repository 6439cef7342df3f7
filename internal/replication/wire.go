package replication

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"crypto/hmac"
	"crypto/sha256"

	"smarteryou/internal/cas"
)

// Wire framing: every replication message is one frame,
//
//	[4-byte payload length, big-endian]
//	[4-byte CRC32 (IEEE) of the payload]
//	[payload: frame-type byte + type-specific body]
//
// — the same header the store's WAL uses, so torn and corrupted frames
// are detected the same way. Handshake frames (hello/welcome) carry an
// additional HMAC-SHA256 trailer under the pre-shared key: they
// authenticate the session the way transport envelopes authenticate
// requests. Data frames rely on the CRC plus the authenticated session.
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

// maxWireFrame bounds one replication frame. Snapshot chunks are cut at
// snapshotChunkBytes and records are bounded by the store's own record
// limit, so anything larger is corruption.
const maxWireFrame = 288 << 20

// snapshotChunkBytes is the snapshot streaming chunk size: big enough to
// amortize framing, small enough to interleave progress and bound
// per-frame memory.
const snapshotChunkBytes = 1 << 20

// macSize is the HMAC-SHA256 trailer length on handshake frames.
const macSize = sha256.Size

// Errors from the frame codec.
var (
	errFrameTooLarge = errors.New("replication: frame exceeds size limit")
	errBadFrame      = errors.New("replication: malformed frame")
)

// writeWireFrame writes one length+CRC framed payload.
func writeWireFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxWireFrame {
		return errFrameTooLarge
	}
	var header [8]byte
	binary.BigEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("replication: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("replication: write frame body: %w", err)
	}
	return nil
}

// readWireFrame reads one framed payload, verifying length and CRC.
func readWireFrame(r io.Reader) ([]byte, error) {
	var header [8]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(header[0:4])
	if n > maxWireFrame {
		return nil, errFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("replication: read frame body: %w", err)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != binary.BigEndian.Uint32(header[4:8]) {
		return nil, fmt.Errorf("%w: checksum mismatch", errBadFrame)
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty payload", errBadFrame)
	}
	return payload, nil
}

// wireReader is a failure-latching cursor over a frame payload, the same
// shape as the store codec's reader: the first error sticks and every
// later accessor returns zero values, so decoders check err once.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errBadFrame, fmt.Sprintf(format, args...))
	}
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 1 {
		r.fail("truncated byte")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.remaining()) {
		r.fail("string length %d exceeds %d remaining bytes", n, r.remaining())
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// seqList decodes a uvarint-counted list of uvarint cursors, bounding
// the count by the remaining bytes (each entry is at least one byte).
func (r *wireReader) seqList() []uint64 {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail("cursor count %d exceeds %d remaining bytes", n, r.remaining())
		return nil
	}
	out := make([]uint64, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		out = append(out, r.uvarint())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// hash reads one raw 32-byte chunk hash.
func (r *wireReader) hash() cas.Hash {
	var h cas.Hash
	if r.err != nil {
		return h
	}
	if r.remaining() < cas.HashSize {
		r.fail("truncated hash")
		return h
	}
	copy(h[:], r.b[r.off:])
	r.off += cas.HashSize
	return h
}

// bytes reads a uvarint-length-prefixed byte slice (no copy).
func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail("byte length %d exceeds %d remaining bytes", n, r.remaining())
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// rest returns everything not yet consumed (no copy; callers that retain
// it must copy).
func (r *wireReader) rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.b[r.off:]
	r.off = len(r.b)
	return b
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendSeqs(buf []byte, seqs []uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(seqs)))
	for _, s := range seqs {
		buf = binary.AppendUvarint(buf, s)
	}
	return buf
}

// sealHandshake appends the HMAC trailer over buf's current contents.
func sealHandshake(buf, key []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(buf)
	return mac.Sum(buf)
}

// openHandshake verifies and strips the HMAC trailer.
func openHandshake(payload, key []byte) ([]byte, error) {
	if len(payload) < macSize+1 {
		return nil, fmt.Errorf("%w: handshake frame too short", errBadFrame)
	}
	body, tag := payload[:len(payload)-macSize], payload[len(payload)-macSize:]
	mac := hmac.New(sha256.New, key)
	mac.Write(body)
	if !hmac.Equal(tag, mac.Sum(nil)) {
		return nil, fmt.Errorf("%w: handshake authentication failed", ErrBadHandshake)
	}
	return body, nil
}

// helloFrame is the follower's opening message. Version 2 hellos also
// declare the chunk hashes the follower's CAS already holds, so a delta
// catch-up can skip shipping them.
type helloFrame struct {
	version int
	seqs    []uint64 // per-shard durable cursors; length = shard count
	hashes  []cas.Hash
}

func encodeHello(h helloFrame, key []byte) []byte {
	buf := []byte{frameHello, byte(h.version)}
	buf = appendSeqs(buf, h.seqs)
	if h.version >= 2 {
		buf = binary.AppendUvarint(buf, uint64(len(h.hashes)))
		for _, hash := range h.hashes {
			buf = append(buf, hash[:]...)
		}
	}
	return sealHandshake(buf, key)
}

func decodeHello(payload, key []byte) (helloFrame, error) {
	body, err := openHandshake(payload, key)
	if err != nil {
		return helloFrame{}, err
	}
	r := &wireReader{b: body}
	if t := r.byte(); t != frameHello && r.err == nil {
		r.fail("frame type %#x, want hello", t)
	}
	h := helloFrame{version: int(r.byte())}
	h.seqs = r.seqList()
	if h.version >= 2 && r.err == nil {
		n := r.uvarint()
		if n > uint64(r.remaining()/cas.HashSize) {
			r.fail("hash count %d exceeds %d remaining bytes", n, r.remaining())
		}
		for i := uint64(0); i < n && r.err == nil; i++ {
			h.hashes = append(h.hashes, r.hash())
		}
	}
	if r.err == nil && r.off != len(body) {
		r.fail("%d trailing bytes", len(body)-r.off)
	}
	if r.err != nil {
		return helloFrame{}, r.err
	}
	return h, nil
}

// welcomeFrame is the leader's handshake reply.
type welcomeFrame struct {
	version int
	// clientAddr is the leader's advertised client-facing address; the
	// follower's server redirects writes there.
	clientAddr string
	seqs       []uint64 // the leader's per-shard durable cursors
}

func encodeWelcome(w welcomeFrame, key []byte) []byte {
	buf := []byte{frameWelcome, byte(w.version)}
	buf = appendStr(buf, w.clientAddr)
	buf = appendSeqs(buf, w.seqs)
	return sealHandshake(buf, key)
}

func decodeWelcome(payload, key []byte) (welcomeFrame, error) {
	body, err := openHandshake(payload, key)
	if err != nil {
		return welcomeFrame{}, err
	}
	r := &wireReader{b: body}
	if t := r.byte(); t != frameWelcome && r.err == nil {
		r.fail("frame type %#x, want welcome", t)
	}
	w := welcomeFrame{version: int(r.byte())}
	w.clientAddr = r.str()
	w.seqs = r.seqList()
	if r.err == nil && r.off != len(body) {
		r.fail("%d trailing bytes", len(body)-r.off)
	}
	if r.err != nil {
		return welcomeFrame{}, r.err
	}
	return w, nil
}

// recordFrame carries one WAL record payload for a shard.
type recordFrame struct {
	shard   int
	payload []byte // store WAL payload, format byte first
}

func encodeRecordFrame(f recordFrame) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+len(f.payload))
	buf = append(buf, frameRecord)
	buf = binary.AppendUvarint(buf, uint64(f.shard))
	return append(buf, f.payload...)
}

func decodeRecordFrame(payload []byte) (recordFrame, error) {
	r := &wireReader{b: payload}
	if t := r.byte(); t != frameRecord && r.err == nil {
		r.fail("frame type %#x, want record", t)
	}
	f := recordFrame{shard: int(r.uvarint())}
	f.payload = r.rest()
	if r.err == nil && len(f.payload) == 0 {
		r.fail("empty record payload")
	}
	if r.err != nil {
		return recordFrame{}, r.err
	}
	return f, nil
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

func encodeSnapshotChunk(c snapshotChunk) []byte {
	buf := make([]byte, 0, 1+2*binary.MaxVarintLen64+1+len(c.data))
	buf = append(buf, frameSnapshot)
	buf = binary.AppendUvarint(buf, uint64(c.shard))
	if c.last {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, c.lastSeq)
	return append(buf, c.data...)
}

func decodeSnapshotChunk(payload []byte) (snapshotChunk, error) {
	r := &wireReader{b: payload}
	if t := r.byte(); t != frameSnapshot && r.err == nil {
		r.fail("frame type %#x, want snapshot", t)
	}
	c := snapshotChunk{shard: int(r.uvarint())}
	switch flag := r.byte(); flag {
	case 0:
	case 1:
		c.last = true
	default:
		r.fail("snapshot flag %d", flag)
	}
	c.lastSeq = r.uvarint()
	c.data = r.rest()
	if r.err != nil {
		return snapshotChunk{}, r.err
	}
	return c, nil
}

// deltaBody carries one shard's content-addressed snapshot body — the
// exact bytes of its snapshot.cas file, manifests only, no chunk data.
type deltaBody struct {
	shard int
	data  []byte
}

func encodeDeltaBody(d deltaBody) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+len(d.data))
	buf = append(buf, frameDeltaBody)
	buf = binary.AppendUvarint(buf, uint64(d.shard))
	return append(buf, d.data...)
}

func decodeDeltaBody(payload []byte) (deltaBody, error) {
	r := &wireReader{b: payload}
	if t := r.byte(); t != frameDeltaBody && r.err == nil {
		r.fail("frame type %#x, want delta body", t)
	}
	d := deltaBody{shard: int(r.uvarint())}
	d.data = r.rest()
	if r.err == nil && len(d.data) == 0 {
		r.fail("empty delta body")
	}
	if r.err != nil {
		return deltaBody{}, r.err
	}
	return d, nil
}

// deltaChunks is one batch of chunk payloads for a shard's in-flight
// delta: per chunk a raw hash and a length-prefixed payload. The
// receiver verifies each payload against its hash when storing it.
type deltaChunks struct {
	shard  int
	hashes []cas.Hash
	data   [][]byte
}

func encodeDeltaChunks(d deltaChunks) []byte {
	size := 1 + 2*binary.MaxVarintLen64
	for _, c := range d.data {
		size += cas.HashSize + binary.MaxVarintLen64 + len(c)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, frameDeltaChunks)
	buf = binary.AppendUvarint(buf, uint64(d.shard))
	buf = binary.AppendUvarint(buf, uint64(len(d.hashes)))
	for i, h := range d.hashes {
		buf = append(buf, h[:]...)
		buf = binary.AppendUvarint(buf, uint64(len(d.data[i])))
		buf = append(buf, d.data[i]...)
	}
	return buf
}

func decodeDeltaChunks(payload []byte) (deltaChunks, error) {
	r := &wireReader{b: payload}
	if t := r.byte(); t != frameDeltaChunks && r.err == nil {
		r.fail("frame type %#x, want delta chunks", t)
	}
	d := deltaChunks{shard: int(r.uvarint())}
	n := r.uvarint()
	if r.err == nil && n > uint64(r.remaining()/(cas.HashSize+1)) {
		r.fail("chunk count %d exceeds %d remaining bytes", n, r.remaining())
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		d.hashes = append(d.hashes, r.hash())
		d.data = append(d.data, r.bytes())
	}
	if r.err == nil && r.off != len(payload) {
		r.fail("%d trailing bytes", len(payload)-r.off)
	}
	if r.err != nil {
		return deltaChunks{}, r.err
	}
	return d, nil
}

// deltaDone closes one shard's delta: every needed chunk has been sent
// (or was already declared), the follower installs body + chunks and
// jumps its cursor to lastSeq.
type deltaDone struct {
	shard   int
	lastSeq uint64
}

func encodeDeltaDone(d deltaDone) []byte {
	buf := make([]byte, 0, 1+2*binary.MaxVarintLen64)
	buf = append(buf, frameDeltaDone)
	buf = binary.AppendUvarint(buf, uint64(d.shard))
	return binary.AppendUvarint(buf, d.lastSeq)
}

func decodeDeltaDone(payload []byte) (deltaDone, error) {
	r := &wireReader{b: payload}
	if t := r.byte(); t != frameDeltaDone && r.err == nil {
		r.fail("frame type %#x, want delta done", t)
	}
	d := deltaDone{shard: int(r.uvarint())}
	d.lastSeq = r.uvarint()
	if r.err == nil && r.off != len(payload) {
		r.fail("%d trailing bytes", len(payload)-r.off)
	}
	if r.err != nil {
		return deltaDone{}, r.err
	}
	return d, nil
}

// ackFrame acknowledges a durable (shard, seq) on the follower.
type ackFrame struct {
	shard int
	seq   uint64
}

func encodeAck(a ackFrame) []byte {
	buf := make([]byte, 0, 1+2*binary.MaxVarintLen64)
	buf = append(buf, frameAck)
	buf = binary.AppendUvarint(buf, uint64(a.shard))
	return binary.AppendUvarint(buf, a.seq)
}

func decodeAck(payload []byte) (ackFrame, error) {
	r := &wireReader{b: payload}
	if t := r.byte(); t != frameAck && r.err == nil {
		r.fail("frame type %#x, want ack", t)
	}
	a := ackFrame{shard: int(r.uvarint())}
	a.seq = r.uvarint()
	if r.err == nil && r.off != len(payload) {
		r.fail("%d trailing bytes", len(payload)-r.off)
	}
	if r.err != nil {
		return ackFrame{}, r.err
	}
	return a, nil
}

// encodeErrorFrame carries a fatal message before the sender closes.
func encodeErrorFrame(msg string) []byte {
	buf := []byte{frameError}
	return appendStr(buf, msg)
}

func decodeErrorFrame(payload []byte) (string, error) {
	r := &wireReader{b: payload}
	if t := r.byte(); t != frameError && r.err == nil {
		r.fail("frame type %#x, want error", t)
	}
	msg := r.str()
	if r.err != nil {
		return "", r.err
	}
	return msg, nil
}
