// Control wire protocol: the tiny node-to-node channel that moves shard
// ownership. Each exchange is one request frame and one response frame,
// both sealed frames of internal/wire under the pre-shared key (control
// messages move write authority, so every one of them authenticates).
// The control types carry names no other channel uses, so a client or
// replication frame sealed under the same key never verifies here, nor a
// control frame there. Handoff traffic is rare and small; nothing here is
// a hot path.
package cluster

import (
	"fmt"
	"io"
	"net"
	"time"

	"smarteryou/internal/binio"
	"smarteryou/internal/wire"
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

// ctrlNames are the control channel's MAC names.
var ctrlNames = wire.NewNames(map[byte]string{
	ctrlMapGet:  "ctrl.map-get",
	ctrlMapPush: "ctrl.map-push",
	ctrlSeal:    "ctrl.seal",
	ctrlMap:     "ctrl.map",
	ctrlCursor:  "ctrl.cursor",
	ctrlOK:      "ctrl.ok",
	ctrlErr:     "ctrl.error",
})

// maxFrameBytes bounds one control frame body; maps are a few hundred
// bytes even at hundreds of shards, so anything larger is corruption.
const maxFrameBytes = 8 << 20

// readBufferBytes is a control connection's read buffer; every control
// frame but a large map fits in it.
const readBufferBytes = 4 << 10

func newCtrlConn(rw io.ReadWriter, key []byte) *wire.Conn {
	return wire.NewConn(rw, key, maxFrameBytes, readBufferBytes)
}

// The encoders below build unsealed frames (wire.Begin, then the
// payload); writeCtrl seals and sends one.

// writeCtrl seals a frame built by one of the encoders and writes it.
func writeCtrl(c *wire.Conn, frame []byte) error {
	if err := c.Seal(frame, ctrlNames); err != nil {
		return err
	}
	if _, err := c.Flush(frame); err != nil {
		return fmt.Errorf("cluster: write control frame: %w", err)
	}
	return nil
}

// sealRequest asks the owner to freeze one shard and report its cursor.
type sealRequest struct {
	shard int
}

func encodeSealRequest(req sealRequest) []byte {
	return binio.AppendUvarint(wire.Begin(nil, ctrlSeal), uint64(req.shard))
}

func decodeSealRequest(payload []byte) (sealRequest, error) {
	shard, err := decodeCtrlUvarint(payload, "seal")
	return sealRequest{shard: int(shard)}, err
}

// decodeCtrlUvarint decodes a control payload that is exactly one
// uvarint.
func decodeCtrlUvarint(payload []byte, name string) (uint64, error) {
	r := binio.NewReader(payload)
	v := r.Uvarint()
	if r.Err() == nil && r.Remaining() != 0 {
		r.Fail("%d trailing bytes", r.Remaining())
	}
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("cluster: bad %s frame: %w", name, err)
	}
	return v, nil
}

// encodeCursorResponse answers a seal with the shard's frozen cursor.
func encodeCursorResponse(cursor uint64) []byte {
	return binio.AppendUvarint(wire.Begin(nil, ctrlCursor), cursor)
}

func decodeCursorResponse(payload []byte) (uint64, error) {
	return decodeCtrlUvarint(payload, "cursor")
}

// encodeMapFrame carries an encoded shard map as a push request or a
// map-get response; DecodeShardMap reads its payload.
func encodeMapFrame(frameType byte, m *ShardMap) []byte {
	return m.AppendBinary(wire.Begin(nil, frameType))
}

// encodeMapGet asks a node for its current map.
func encodeMapGet() []byte {
	return wire.Begin(nil, ctrlMapGet)
}

// encodeOK is the empty success response.
func encodeOK() []byte {
	return wire.Begin(nil, ctrlOK)
}

// encodeCtrlErr carries a failure message back to the requester.
func encodeCtrlErr(msg string) []byte {
	return binio.AppendString(wire.Begin(nil, ctrlErr), msg)
}

func decodeCtrlErr(payload []byte) string {
	r := binio.NewReader(payload)
	msg := r.Str()
	if r.Err() != nil {
		return "unreadable error frame"
	}
	return msg
}

// ctrlRequest performs one authenticated control exchange against a
// peer's control address and returns the verified payload of the
// response, which must be of type want.
func ctrlRequest(addr string, key, frame []byte, want byte, timeout time.Duration) ([]byte, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial control %s: %w", addr, err)
	}
	defer func() { _ = nc.Close() }()
	_ = nc.SetDeadline(time.Now().Add(timeout))
	c := newCtrlConn(nc, key)
	if err := writeCtrl(c, frame); err != nil {
		return nil, err
	}
	tb, payload, err := c.Read(ctrlNames)
	if err != nil {
		return nil, fmt.Errorf("cluster: read control response from %s: %w", addr, err)
	}
	switch tb {
	case want:
		return payload, nil
	case ctrlErr:
		return nil, fmt.Errorf("cluster: peer %s refused: %s", addr, decodeCtrlErr(payload))
	default:
		return nil, fmt.Errorf("cluster: peer %s answered frame type %#x, want %#x", addr, tb, want)
	}
}
