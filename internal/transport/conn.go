package transport

import (
	"fmt"
	"net"
	"time"
	"unsafe"

	"smarteryou/internal/core"
	"smarteryou/internal/features"
	"smarteryou/internal/wire"
)

// wireConn is one client-channel connection, the same on the server and
// the client: the frame layer's connection (internal/wire), and the
// buffer the next frames are built in, so a frame is sealed in place and
// the frames pending are written with one Write. A body or envelope read
// from it aliases the read buffer and is valid until the next read;
// everything decoded from it is a copy.
type wireConn struct {
	*wire.Conn
	nc  net.Conn
	out []byte

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

// readBufferBytes is the client channel's read buffer: a request or a
// response up to it arrives in one read.
const readBufferBytes = 4 << 10

func newWireConn(nc net.Conn, key []byte) *wireConn {
	return &wireConn{Conn: wire.NewConn(nc, key, MaxFrameBytes, readBufferBytes), nc: nc}
}

// keepScratch is wire.Keep for a connection's scratch slices: s emptied
// for reuse, or nil when its backing array is bigger than wire.KeepBytes.
func keepScratch[T any](s []T) []T {
	var zero T
	if uintptr(cap(s))*unsafe.Sizeof(zero) > wire.KeepBytes {
		return nil
	}
	return s[:0]
}

func (c *wireConn) setDeadline(timeout time.Duration) error {
	if err := c.nc.SetDeadline(time.Now().Add(timeout)); err != nil {
		return fmt.Errorf("transport: set deadline: %w", err)
	}
	return nil
}

// readEnvelope reads the next request-mode frame.
func (c *wireConn) readEnvelope() (Envelope, error) {
	body, err := c.ReadBody()
	if err != nil {
		return Envelope{}, err
	}
	return envelopeFromBody(body)
}

// open verifies env's MAC and decodes its payload into out.
func (c *wireConn) open(env Envelope, out any) error {
	if err := c.Verify(macPrefixFor(env.Type), env.MAC, env.Payload); err != nil {
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
	frame, err := appendPayload(wire.Begin(c.out, tb), payload)
	if err != nil {
		return fmt.Errorf("transport: encode %s payload: %w", msgType, err)
	}
	if err := c.Seal(frame[start:], macPrefix); err != nil {
		c.out = frame[:start] // the frames pending before it still go out
		if start == 0 {
			c.out = wire.Keep(frame)
		}
		return err
	}
	c.out = frame
	return nil
}

// flush writes the frames in the write buffer with one Write.
func (c *wireConn) flush() error {
	var err error
	c.out, err = c.Flush(c.out)
	return err
}

// --- client side ---

// answer verifies a response envelope and returns its payload, mapping
// the protocol-level error types onto Go errors.
func (c *wireConn) answer(resp Envelope) ([]byte, error) {
	if err := c.Verify(macPrefixFor(resp.Type), resp.MAC, resp.Payload); err != nil {
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
	decisions := c.batchResp.Decisions
	// An idle connection holds no windows and no decisions; the decoder
	// allocates the next response's anyway.
	c.batchReq, c.batchResp = batchAuthRequest{}, batchAuthResponse{}
	if err != nil {
		return nil, err
	}
	return decisionsFromResponses(decisions), nil
}
