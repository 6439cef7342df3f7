package transport

import (
	"fmt"
	"net"
	"time"
	"unsafe"

	"smarteryou/internal/binio"
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

	// ids is the server end's identity cache: the user ids its requests
	// carried and their pseudonyms.
	ids identityCache

	// The authenticate and enroll verbs' values, request and response, on
	// whichever end. They reach the payload encoder and decoder as
	// interfaces; held here rather than on the stack, they do so without a
	// heap copy per request.
	authReq    authRequest
	authResp   authResponse
	batchReq   batchAuthRequest
	batchResp  batchAuthResponse
	decisions  []core.Decision // the server's scored batch, before batchResp
	enrollReq  enrollRequest
	enrollResp enrollResponse
}

// identity is a user id as requests carry it and the pseudonym the
// server stores, routes and scores it under.
type identity struct {
	userID, anon string
}

// identityCache maps the user ids one connection's requests carry to
// their identities. A connection serves a bounded set of users — one
// phone's, or one service's — and revisits them request after request,
// so a user it has seen decodes without a copy of the id and resolves
// without hashing it again. Its ids and pseudonyms are bounded by
// wire.KeepBytes, the connection's other retention limit; past it the
// cache starts over.
type identityCache struct {
	m     map[string]identity
	bytes int
}

// lookup returns the identity of the user id b. A hit allocates nothing;
// b is never kept, so it may alias the read buffer.
func (ic *identityCache) lookup(b []byte) identity {
	if id, ok := ic.m[string(b)]; ok {
		return id
	}
	return ic.add(string(b))
}

// of is lookup for an id that is already a string: a request decoded
// through the cache, or one decoded from JSON.
func (ic *identityCache) of(userID string) identity {
	if id, ok := ic.m[userID]; ok {
		return id
	}
	return ic.add(userID)
}

func (ic *identityCache) add(userID string) identity {
	id := identity{userID: userID, anon: anonymize(userID)}
	size := len(id.userID) + len(id.anon)
	if size > wire.KeepBytes {
		return id
	}
	if ic.bytes+size > wire.KeepBytes {
		clear(ic.m)
		ic.bytes = 0
	}
	if ic.m == nil {
		ic.m = make(map[string]identity)
	}
	ic.m[userID] = id
	ic.bytes += size
	return id
}

// readUserID reads a request's user id through the cache. Without one (a
// decoder outside a server connection) the id is a copy.
func (ic *identityCache) readUserID(r *binio.Reader) string {
	if ic == nil {
		return r.Str()
	}
	b := r.StrBytes()
	if r.Err() != nil {
		return ""
	}
	return ic.lookup(b).userID
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

// open verifies env's MAC and decodes its payload into out, reading user
// ids through the connection's identity cache.
func (c *wireConn) open(env Envelope, out any) error {
	if err := c.Verify(macPrefixFor(env.Type), env.MAC, env.Payload); err != nil {
		return err
	}
	return decodePayload(env.Type, env.Payload, out, &c.ids)
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
		if err := decodePayload(resp.Type, resp.Payload, &ep, nil); err != nil {
			return nil, err
		}
		return nil, &RemoteError{Message: ep.Message}
	case TypeBusy:
		var bp busyPayload
		if err := decodePayload(resp.Type, resp.Payload, &bp, nil); err != nil {
			return nil, err
		}
		return nil, &BusyError{
			Message:    bp.Message,
			RetryAfter: time.Duration(bp.RetryAfterSeconds * float64(time.Second)),
		}
	case TypeRedirect:
		var rp redirectPayload
		if err := decodePayload(resp.Type, resp.Payload, &rp, nil); err != nil {
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
	return decodePayload(TypeOK, raw, out, nil)
}

// authenticate is request for one window.
func (c *wireConn) authenticate(timeout time.Duration, userID string, sample features.WindowSample) (AuthDecision, error) {
	c.authReq = authRequest{UserID: userID, Sample: sample}
	if err := c.request(timeout, TypeAuthenticate, &c.authReq, &c.authResp); err != nil {
		return AuthDecision{}, err
	}
	return AuthDecision(c.authResp), nil
}

// enroll is request for an upload of windows, replacing the user's
// stored ones when replace is set.
func (c *wireConn) enroll(timeout time.Duration, userID string, replace bool, samples []features.WindowSample) (int, error) {
	c.enrollReq = enrollRequest{UserID: userID, Replace: replace, Samples: samples}
	err := c.request(timeout, TypeEnroll, &c.enrollReq, &c.enrollResp)
	c.enrollReq = enrollRequest{} // an idle connection holds no windows
	if err != nil {
		return 0, err
	}
	return c.enrollResp.Stored, nil
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
