// Control wire protocol: the tiny node-to-node channel that moves shard
// ownership. Each exchange is one request frame and one response frame,
//
//	[4-byte payload length, big-endian]
//	[4-byte CRC32 (IEEE) of the payload]
//	[payload: frame-type byte + body + HMAC-SHA256 trailer]
//
// — the same length+CRC header the replication wire uses, with every
// control frame HMAC-sealed under the pre-shared key (control messages
// move write authority, so all of them authenticate, not just a
// handshake). Handoff traffic is rare and small; nothing here is a hot
// path.
package cluster

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"

	"smarteryou/internal/binio"
)

// Control frame type bytes.
const (
	ctrlMapGet  = 0x67 // 'g': give me your current shard map
	ctrlMapPush = 0x70 // 'p': install this (higher-version) shard map
	ctrlSeal    = 0x73 // 's': seal one shard, answer its cursor
	ctrlMap     = 0x6d // 'm': response carrying an encoded shard map
	ctrlCursor  = 0x63 // 'c': response carrying a sealed shard's cursor
	ctrlOK      = 0x6f // 'o': empty success response
	ctrlErr     = 0x65 // 'e': failure response carrying a message
)

// maxCtrlFrame bounds one control frame; maps are a few hundred bytes
// even at hundreds of shards, so anything larger is corruption.
const maxCtrlFrame = 8 << 20

// ErrBadCtrlFrame is returned when a control frame fails to decode or
// authenticate.
var ErrBadCtrlFrame = errors.New("cluster: malformed control frame")

const ctrlMACSize = sha256.Size

// sealCtrl appends the HMAC trailer over the frame body.
func sealCtrl(body, key []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(body)
	return mac.Sum(body)
}

// openCtrl verifies and strips the HMAC trailer.
func openCtrl(payload, key []byte) ([]byte, error) {
	if len(payload) < ctrlMACSize+1 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadCtrlFrame, len(payload))
	}
	body, tag := payload[:len(payload)-ctrlMACSize], payload[len(payload)-ctrlMACSize:]
	mac := hmac.New(sha256.New, key)
	mac.Write(body)
	if !hmac.Equal(tag, mac.Sum(nil)) {
		return nil, fmt.Errorf("%w: authentication failed", ErrBadCtrlFrame)
	}
	return body, nil
}

// writeCtrlFrame writes one length+CRC framed payload.
func writeCtrlFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxCtrlFrame {
		return fmt.Errorf("%w: frame exceeds size limit", ErrBadCtrlFrame)
	}
	var header [8]byte
	binary.BigEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("cluster: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("cluster: write frame body: %w", err)
	}
	return nil
}

// readCtrlFrame reads one framed payload, verifying length and CRC.
func readCtrlFrame(r io.Reader) ([]byte, error) {
	var header [8]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(header[0:4])
	if n > maxCtrlFrame {
		return nil, fmt.Errorf("%w: frame exceeds size limit", ErrBadCtrlFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("cluster: read frame body: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(header[4:8]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadCtrlFrame)
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrBadCtrlFrame)
	}
	return payload, nil
}

// sealRequest asks the owner to freeze one shard and report its cursor.
type sealRequest struct {
	shard int
}

func encodeSealRequest(req sealRequest, key []byte) []byte {
	body := []byte{ctrlSeal}
	body = binary.AppendUvarint(body, uint64(req.shard))
	return sealCtrl(body, key)
}

func decodeSealRequest(body []byte) (sealRequest, error) {
	shard, err := decodeCtrlUvarint(body, ctrlSeal, "seal")
	return sealRequest{shard: int(shard)}, err
}

// decodeCtrlUvarint decodes a control frame body that is a type byte
// followed by exactly one uvarint.
func decodeCtrlUvarint(body []byte, wantType uint64, name string) (uint64, error) {
	r := binio.NewReader(body)
	if t := r.Uvarint(); t != wantType {
		r.Fail("frame type %#x, want %s", t, name)
	}
	v := r.Uvarint()
	if r.Err() == nil && r.Remaining() != 0 {
		r.Fail("%d trailing bytes", r.Remaining())
	}
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadCtrlFrame, err)
	}
	return v, nil
}

// encodeCursorResponse answers a seal with the shard's frozen cursor.
func encodeCursorResponse(cursor uint64, key []byte) []byte {
	body := []byte{ctrlCursor}
	body = binary.AppendUvarint(body, cursor)
	return sealCtrl(body, key)
}

func decodeCursorResponse(body []byte) (uint64, error) {
	return decodeCtrlUvarint(body, ctrlCursor, "cursor")
}

// encodeMapFrame carries an encoded shard map as a push request or a
// map-get response.
func encodeMapFrame(frameType byte, m *ShardMap, key []byte) []byte {
	body := m.AppendBinary([]byte{frameType})
	return sealCtrl(body, key)
}

func decodeMapFrame(body []byte, wantType byte) (*ShardMap, error) {
	if len(body) < 1 {
		return nil, fmt.Errorf("%w: empty map frame", ErrBadCtrlFrame)
	}
	if body[0] != wantType {
		return nil, fmt.Errorf("%w: frame type %#x, want %#x", ErrBadCtrlFrame, body[0], wantType)
	}
	return DecodeShardMap(body[1:])
}

// encodeMapGet asks a node for its current map.
func encodeMapGet(key []byte) []byte {
	return sealCtrl([]byte{ctrlMapGet}, key)
}

// encodeOK is the empty success response.
func encodeOK(key []byte) []byte {
	return sealCtrl([]byte{ctrlOK}, key)
}

// encodeCtrlErr carries a failure message back to the requester.
func encodeCtrlErr(msg string, key []byte) []byte {
	body := []byte{ctrlErr}
	body = binio.AppendString(body, msg)
	return sealCtrl(body, key)
}

func decodeCtrlErr(body []byte) string {
	r := binio.NewReader(body)
	r.Uvarint() // type byte
	msg := r.Str()
	if r.Err() != nil {
		return "unreadable error frame"
	}
	return msg
}

// ctrlRequest performs one authenticated control exchange against a
// peer's control address and returns the verified response body
// (first byte is the response frame type).
func ctrlRequest(addr string, key, frame []byte, timeout time.Duration) ([]byte, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial control %s: %w", addr, err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if err := writeCtrlFrame(conn, frame); err != nil {
		return nil, err
	}
	payload, err := readCtrlFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("cluster: read control response from %s: %w", addr, err)
	}
	body, err := openCtrl(payload, key)
	if err != nil {
		return nil, err
	}
	if body[0] == ctrlErr {
		return nil, fmt.Errorf("cluster: peer %s refused: %s", addr, decodeCtrlErr(body))
	}
	return body, nil
}
