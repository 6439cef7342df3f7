package transport

import (
	"bufio"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"net"
	"time"

	"smarteryou/internal/core"
	"smarteryou/internal/features"
)

// wireConn is one connection's framing state, the same on the server and
// the client: a buffered reader, so a frame that arrived whole is one
// read from the socket, and frames that arrived together (pipelined
// stream windows) are one read between them; the buffer the last frame
// was read into and the one the next frames are built in, so a frame is
// sealed in place and the frames pending are written with one Write; and
// an HMAC keyed once for the connection's life. A body or envelope read
// from it aliases the read buffer and is valid until the next read;
// everything decoded from it is a copy.
type wireConn struct {
	nc  net.Conn
	r   *bufio.Reader
	mac hash.Hash
	in  []byte
	out []byte
	sum [sha256.Size]byte // scratch for checking a received MAC

	// The authenticate verbs' values, request and response, on whichever
	// end. They reach the payload encoder and decoder as interfaces; held
	// here rather than on the stack, they do so without a heap copy per
	// request.
	authReq   authRequest
	authResp  authResponse
	batchReq  batchAuthRequest
	batchResp batchAuthResponse
	decisions []core.Decision // the server's scored batch, before batchResp
}

// keepBufferBytes bounds the buffers a connection keeps between frames:
// an authenticate or a batch reuses its buffers, and the odd bulk
// enrollment or model download does not pin megabytes to an idle
// connection.
const keepBufferBytes = 64 << 10

func newWireConn(nc net.Conn, key []byte) *wireConn {
	return &wireConn{nc: nc, r: bufio.NewReader(nc), mac: hmac.New(sha256.New, key)}
}

// keep returns buf emptied for reuse, or nil when it is too big to keep.
func keep(buf []byte) []byte {
	if cap(buf) > keepBufferBytes {
		return nil
	}
	return buf[:0]
}

func (c *wireConn) setDeadline(timeout time.Duration) error {
	if err := c.nc.SetDeadline(time.Now().Add(timeout)); err != nil {
		return fmt.Errorf("transport: set deadline: %w", err)
	}
	return nil
}

// streamFlushBytes is how much a stream end lets pile up in its write
// buffer before it writes without waiting to be about to block on a read.
const streamFlushBytes = 32 << 10

// frameBuffered reports whether the reader already holds a whole frame,
// so the next readBody returns without reading from the socket.
func (c *wireConn) frameBuffered() bool {
	if c.r.Buffered() < 4 {
		return false
	}
	head, err := c.r.Peek(4)
	return err == nil && uint64(c.r.Buffered()) >= 4+uint64(binary.BigEndian.Uint32(head))
}

// readBody reads the next frame body, request or stream frame alike.
func (c *wireConn) readBody() ([]byte, error) {
	body, err := readFrameBody(c.r, c.in)
	if err != nil {
		return nil, err
	}
	c.in = keep(body)
	return body, nil
}

// readEnvelope reads the next request-mode frame.
func (c *wireConn) readEnvelope() (Envelope, error) {
	body, err := c.readBody()
	if err != nil {
		return Envelope{}, err
	}
	return envelopeFromBody(body)
}

// open verifies env's MAC and decodes its payload into out.
func (c *wireConn) open(env Envelope, out any) error {
	if err := verifyMAC(c.mac, c.sum[:], env); err != nil {
		return err
	}
	return decodePayload(env.Type, env.Payload, out)
}

// sealPayload builds the frame for a payload value in the write buffer,
// behind any frames already pending there: the header with the MAC
// blank, the payload encoded straight behind it, then the length and the
// MAC filled in place. flush sends it.
func (c *wireConn) sealPayload(msgType string, payload any) error {
	tb, ok := typeToByte[msgType]
	if !ok {
		return fmt.Errorf("transport: type %q has no v2 type byte", msgType)
	}
	start := len(c.out)
	frame, err := appendPayload(beginFrame(c.out, tb), payload)
	if err != nil {
		return fmt.Errorf("transport: encode %s payload: %w", msgType, err)
	}
	if err := sealFrame(c.mac, frame[start:], macPrefix[tb]); err != nil {
		c.out = frame[:start] // the frames pending before it still go out
		if start == 0 {
			c.out = keep(frame)
		}
		return err
	}
	c.out = frame
	return nil
}

// flush writes the frames in the write buffer with one Write.
func (c *wireConn) flush() error {
	_, err := c.nc.Write(c.out)
	c.out = keep(c.out)
	return err
}

// --- client side ---

// answer verifies a response envelope and returns its payload, mapping
// the protocol-level error types onto Go errors.
func (c *wireConn) answer(resp Envelope) ([]byte, error) {
	if err := verifyMAC(c.mac, c.sum[:], resp); err != nil {
		return nil, err
	}
	switch resp.Type {
	case TypeOK:
		return resp.Payload, nil
	case TypeError:
		var ep errorPayload
		if err := decodePayload(resp.Type, resp.Payload, &ep); err != nil {
			return nil, err
		}
		return nil, &RemoteError{Message: ep.Message}
	case TypeBusy:
		var bp busyPayload
		if err := decodePayload(resp.Type, resp.Payload, &bp); err != nil {
			return nil, err
		}
		return nil, &BusyError{
			Message:    bp.Message,
			RetryAfter: time.Duration(bp.RetryAfterSeconds * float64(time.Second)),
		}
	case TypeRedirect:
		var rp redirectPayload
		if err := decodePayload(resp.Type, resp.Payload, &rp); err != nil {
			return nil, err
		}
		return nil, &RedirectError{Message: rp.Message, Leader: rp.Leader}
	default:
		return nil, fmt.Errorf("transport: unexpected response type %q", resp.Type)
	}
}

// request performs one request/response exchange for a payload value,
// decoding the payload of the server's OK response into out; see answer.
func (c *wireConn) request(timeout time.Duration, reqType string, payload, out any) error {
	if err := c.setDeadline(timeout); err != nil {
		return err
	}
	if err := c.sealPayload(reqType, payload); err != nil {
		return err
	}
	if err := c.flush(); err != nil {
		return fmt.Errorf("transport: write request: %w", err)
	}
	resp, err := c.readEnvelope()
	if err != nil {
		return fmt.Errorf("transport: read response: %w", err)
	}
	raw, err := c.answer(resp)
	if err != nil {
		return err
	}
	return decodePayload(TypeOK, raw, out)
}

// authenticate is request for one window.
func (c *wireConn) authenticate(timeout time.Duration, userID string, sample features.WindowSample) (AuthDecision, error) {
	c.authReq = authRequest{UserID: userID, Sample: sample}
	if err := c.request(timeout, TypeAuthenticate, &c.authReq, &c.authResp); err != nil {
		return AuthDecision{}, err
	}
	return AuthDecision(c.authResp), nil
}

// authenticateBatch is request for a burst of windows.
func (c *wireConn) authenticateBatch(timeout time.Duration, userID string, samples []features.WindowSample) ([]AuthDecision, error) {
	c.batchReq = batchAuthRequest{UserID: userID, Samples: samples}
	err := c.request(timeout, TypeAuthBatch, &c.batchReq, &c.batchResp)
	c.batchReq = batchAuthRequest{} // an idle connection holds no windows
	if err != nil {
		return nil, err
	}
	return decisionsFromResponses(c.batchResp.Decisions), nil
}
