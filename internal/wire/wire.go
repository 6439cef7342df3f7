// Package wire is the one authenticated frame every network channel
// speaks: the client protocol (internal/transport), replication
// (internal/replication) and cluster control (internal/cluster). It
// stands in for the SSL/TLS channel protection of the paper's Section
// IV-C (stdlib-only: no certificate infrastructure, but integrity and a
// form of origin authentication under a pre-shared key are real).
//
//	sealed frame:
//	  [0:4]    body length n, big-endian
//	  [4]      FormatSealed
//	  [5]      type byte
//	  [6:38]   HMAC-SHA256 over name || 0x00 || payload
//	  [38:4+n] payload
//
// A channel names its type bytes (Names), and the tag binds the name,
// not the byte. Channels that share a key keep apart by giving their
// types names no other channel uses: a frame sealed for one channel
// verifies on no other. What a payload holds is the channel's business.
package wire

import (
	"bufio"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
)

const (
	// FormatSealed is the first body byte of a sealed frame.
	FormatSealed byte = 0x02
	// HeaderBytes is what precedes the payload in a sealed frame: the
	// length, the format and type bytes, and the MAC.
	HeaderBytes = 4 + 2 + sha256.Size
	// KeepBytes bounds the buffers a connection keeps between frames:
	// small frames reuse their buffers, and the odd bulk frame (an
	// enrollment, a model download, a snapshot chunk) does not pin
	// megabytes to an idle connection.
	KeepBytes = 64 << 10
	// FlushBytes is how much a writer that batches frames lets pile up
	// before it writes without waiting to be about to block on a read.
	FlushBytes = 32 << 10
)

// Errors returned by the frame layer.
var (
	// ErrBadMAC indicates a frame failed integrity verification.
	ErrBadMAC = errors.New("wire: message authentication failed")
	// ErrFrameTooLarge indicates a frame length above the channel's bound.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
)

// Names is a channel's type table: per type byte the channel speaks, the
// MAC input ahead of the payload (the type's name and a 0x00); nil for a
// byte the channel does not speak.
type Names [256][]byte

// NewNames builds a channel's type table.
func NewNames(names map[byte]string) *Names {
	var t Names
	for b, s := range names {
		t[b] = append([]byte(s), 0)
	}
	return &t
}

// Keep returns buf emptied for reuse, or nil when it is bigger than
// KeepBytes.
func Keep(buf []byte) []byte {
	if cap(buf) > KeepBytes {
		return nil
	}
	return buf[:0]
}

// Begin appends the header of a sealed frame of type tb to dst with the
// length and the MAC left blank. The caller appends the payload straight
// behind it and finishes the frame with Seal.
func Begin(dst []byte, tb byte) []byte {
	var blank [HeaderBytes]byte
	blank[4], blank[5] = FormatSealed, tb
	return append(dst, blank[:]...)
}

// Seal finishes a frame begun by Begin (frame starts at its length
// prefix): it writes the length and computes the MAC in place over the
// payload already in the frame, with prefix as the name input and h an
// HMAC keyed by the pre-shared key. A body longer than max is refused.
func Seal(h hash.Hash, frame, prefix []byte, max int) error {
	n := len(frame) - 4
	if n > max {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	sum(h, frame[6:HeaderBytes], prefix, frame[HeaderBytes:])
	return nil
}

// sum writes HMAC-SHA256(prefix || payload) into mac[:sha256.Size]. mac
// may be the MAC slot of a frame whose payload follows it: the tag is
// written in place and no byte outside the slot is touched.
func sum(h hash.Hash, mac, prefix, payload []byte) {
	h.Reset()
	h.Write(prefix)
	h.Write(payload)
	h.Sum(mac[:0])
}

// Verify checks a frame's MAC against prefix || payload with h, using
// scratch as the buffer for the expected tag.
func Verify(h hash.Hash, scratch *[sha256.Size]byte, prefix, mac, payload []byte) error {
	sum(h, scratch[:], prefix, payload)
	if !hmac.Equal(mac, scratch[:]) {
		return ErrBadMAC
	}
	return nil
}

// Parse splits a sealed frame body (a body ReadBody returned) into its
// type byte, MAC and payload, all aliasing body. It checks the layout,
// not the MAC.
func Parse(body []byte) (tb byte, mac, payload []byte, err error) {
	if len(body) < HeaderBytes-4 {
		return 0, nil, nil, fmt.Errorf("wire: sealed frame truncated (%d bytes)", len(body))
	}
	if body[0] != FormatSealed {
		return 0, nil, nil, fmt.Errorf("wire: format byte %#x, want a sealed frame", body[0])
	}
	return body[1], body[2 : HeaderBytes-4], body[HeaderBytes-4:], nil
}

// ReadBody reads one length-prefixed frame body into buf's backing
// array, which is grown only when the frame does not fit, and refuses a
// body longer than max before allocating anything, so a misbehaving peer
// cannot force an unbounded allocation. Pass a bufio.Reader and a frame
// that has arrived whole costs one read from the socket.
func ReadBody(r io.Reader, buf []byte, max int) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	header := buf[:4]
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(header)
	if uint64(n) > uint64(max) {
		return nil, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("wire: read frame body: %w", err)
	}
	return body, nil
}

// Conn is one end of a channel: a buffered reader, so a frame that
// arrived whole is one read from the socket and frames that arrived
// together are one read between them; the buffer the last frame was
// read into; and an HMAC keyed once for the connection's life per
// direction, so one goroutine may read while another writes. A body read
// from it aliases the read buffer and is valid until the next read.
//
// The caller owns its write buffer: it appends frames (Begin, then the
// payload, then Seal) and hands the buffer to Flush, which writes every
// frame pending in it with one Write.
type Conn struct {
	rw   io.ReadWriter
	r    *bufio.Reader
	max  int
	in   []byte
	seal hash.Hash
	open hash.Hash
	sum  [sha256.Size]byte // scratch for checking a received MAC
}

// NewConn wraps a connection (deadlines stay the caller's) for a channel
// whose frame bodies are at most maxFrame bytes, reading through a
// buffer of readBuffer bytes.
func NewConn(rw io.ReadWriter, key []byte, maxFrame, readBuffer int) *Conn {
	return &Conn{
		rw:   rw,
		r:    bufio.NewReaderSize(rw, readBuffer),
		max:  maxFrame,
		seal: hmac.New(sha256.New, key),
		open: hmac.New(sha256.New, key),
	}
}

// Buffered reports how many received bytes the reader holds unread.
func (c *Conn) Buffered() int { return c.r.Buffered() }

// FrameBuffered reports whether the reader already holds a whole frame,
// so the next ReadBody returns without reading from the socket.
func (c *Conn) FrameBuffered() bool {
	if c.r.Buffered() < 4 {
		return false
	}
	head, err := c.r.Peek(4)
	return err == nil && uint64(c.r.Buffered()) >= 4+uint64(binary.BigEndian.Uint32(head))
}

// ReadBody reads the next frame body, sealed or not.
func (c *Conn) ReadBody() ([]byte, error) {
	body, err := ReadBody(c.r, c.in, c.max)
	if err != nil {
		return nil, err
	}
	c.in = Keep(body)
	return body, nil
}

// Verify checks a received frame's MAC; see the package Verify.
func (c *Conn) Verify(prefix, mac, payload []byte) error {
	return Verify(c.open, &c.sum, prefix, mac, payload)
}

// Read reads the next frame, which must be a sealed frame of a type
// names holds whose MAC verifies, and returns its type byte and payload.
func (c *Conn) Read(names *Names) (tb byte, payload []byte, err error) {
	body, err := c.ReadBody()
	if err != nil {
		return 0, nil, err
	}
	tb, mac, payload, err := Parse(body)
	if err != nil {
		return 0, nil, err
	}
	if names[tb] == nil {
		return 0, nil, fmt.Errorf("wire: unknown type byte %#x", tb)
	}
	if err := c.Verify(names[tb], mac, payload); err != nil {
		return 0, nil, err
	}
	return tb, payload, nil
}

// Seal finishes a frame begun by Begin with the sealing MAC, taking the
// name from names by the frame's type byte; see the package Seal.
func (c *Conn) Seal(frame []byte, names *Names) error {
	prefix := names[frame[5]]
	if prefix == nil {
		return fmt.Errorf("wire: type byte %#x has no name", frame[5])
	}
	return Seal(c.seal, frame, prefix, c.max)
}

// Flush writes the frames pending in buf with one Write and returns buf
// emptied for reuse (see Keep).
func (c *Conn) Flush(buf []byte) ([]byte, error) {
	_, err := c.rw.Write(buf)
	return Keep(buf), err
}
