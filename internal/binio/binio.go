// Package binio holds the little-endian binary encoding primitives shared
// by the durable store's WAL/snapshot codec (internal/store) and the
// payloads of every network channel (internal/transport, replication and
// cluster): a sticky-error cursor for decoding untrusted payloads, and
// append-style encode helpers.
//
// The Reader is designed for hostile input: the first decode error sticks,
// every accessor returns zero values afterwards, it never reads past the
// buffer, and it never allocates more than the buffer length can justify —
// so a corrupt length prefix cannot drive a huge allocation.
package binio

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader is a cursor over a binary payload. Decoders read a whole
// structure and check Err once at the end.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a cursor at the start of b. The Reader aliases b; the
// caller must not mutate it while decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records a decode error (the first one sticks).
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Remaining reports the unread byte count.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 1 {
		r.Fail("truncated byte")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.Fail("truncated uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// F64 reads a little-endian float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Str reads a uvarint-length-prefixed string.
func (r *Reader) Str() string {
	return r.Intern()
}

// Intern reads a string like Str, but when it equals one of known it
// returns that string instead of a copy, so a value from a small known
// set (a context name, the user id a request already carried) decodes
// without allocating.
func (r *Reader) Intern(known ...string) string {
	b := r.StrBytes()
	for _, s := range known {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// StrBytes reads a string like Str, but returns its bytes aliasing the
// input, so a caller that looks the string up (m[string(b)]) decodes a
// string it has seen before without allocating.
func (r *Reader) StrBytes() []byte {
	return r.prefixed("string")
}

// Bytes reads a uvarint-length-prefixed blob into a fresh copy (the
// result outlives the input buffer).
func (r *Reader) Bytes() []byte {
	return append([]byte(nil), r.prefixed("blob")...)
}

// prefixed reads a uvarint length and that many bytes, aliasing the
// input; what names the value in the error of a length past the input.
func (r *Reader) prefixed(what string) []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.Fail("%s length %d exceeds %d remaining bytes", what, n, r.Remaining())
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Skip moves past n bytes without reading them, failing as a read of
// them would when fewer remain.
func (r *Reader) Skip(n int) {
	if r.err != nil {
		return
	}
	if r.Remaining() < n {
		r.Fail("truncated: %d bytes wanted, %d remain", n, r.Remaining())
		return
	}
	r.off += n
}

// Rest reads every byte not yet read, aliasing the input (a caller that
// keeps them past the input's life copies them).
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.b[r.off:]
	r.off = len(r.b)
	return b
}

// AppendString appends a uvarint-length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendUvarint appends an unsigned varint.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendBytes appends a uvarint-length-prefixed blob.
func AppendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendU64 appends a little-endian uint64.
func AppendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// AppendF64 appends a little-endian float64.
func AppendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// UvarintLen returns the encoded size of v, for exact preallocation.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
