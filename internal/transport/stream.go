package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"smarteryou/internal/binio"
	"smarteryou/internal/features"
	"smarteryou/internal/wire"
)

// Streaming session mode. The smartwatch companion design streams sensor
// data continuously rather than request-per-sample; after a sealed
// stream-open handshake (user lookup, model resolution, HMAC verification
// — all once), the connection switches to raw frames:
//
//	frame body:
//	  [0]       wireFormatStream
//	  [1]       kind (1 window, 2 decision, 3 close, 4 error)
//	  [2:n-4]   payload (binary WindowSample in, binary decision out)
//	  [n-4:]    CRC32 (IEEE) of everything before it, big-endian
//
// Inside the stream, per-frame HMAC is dropped: the sealed handshake
// authenticated the session, and the CRC catches corruption — the same
// trust model the store applies to WAL records after the file is opened.
// TCP provides ordering, so the k-th decision frame answers the k-th
// window frame. A close frame ends the stream; the server answers with a
// sealed OK envelope and the connection returns to request mode.
//
// An error frame (server → client) carries a message instead of a
// decision and terminates the stream; the client surfaces it as a
// RemoteError and poisons the session.
//
// Neither end writes once per frame. Each appends its frames behind the
// ones still pending in its write buffer and writes them all with one
// Write when it is about to block on a read (its reader holds no whole
// frame), when it ends the stream, or once streamFlushBytes are pending.
// No end ever waits for a frame with its own output unsent, so this adds
// no latency: a lockstep Authenticate still makes one write a window on
// each end, and k pipelined windows make one write on each end.

// streamFlushBytes is how much a stream end lets pile up in its write
// buffer before it writes without waiting to be about to block on a read.
const streamFlushBytes = wire.FlushBytes

// Stream frame kinds.
const (
	streamKindWindow   byte = 1
	streamKindDecision byte = 2
	streamKindClose    byte = 3
	streamKindError    byte = 4
)

// streamFrameOverhead is format byte + kind byte + CRC tail.
const streamFrameOverhead = 2 + 4

// appendStreamFrame appends one length-prefixed stream frame to dst so a
// frame goes out in a single write.
func appendStreamFrame(dst []byte, kind byte, payload []byte) []byte {
	dst, start := beginStreamFrame(dst, kind, len(payload))
	dst = append(dst, payload...)
	return finishStreamFrame(dst, start)
}

// beginStreamFrame appends the length prefix (payloadSize must be exact),
// format byte and kind; the caller appends the payload and calls
// finishStreamFrame. Splitting the frame this way lets hot paths encode
// the payload straight into the output buffer without a staging copy.
func beginStreamFrame(dst []byte, kind byte, payloadSize int) (buf []byte, start int) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(streamFrameOverhead+payloadSize))
	start = len(dst)
	dst = append(dst, wireFormatStream, kind)
	return dst, start
}

// finishStreamFrame seals a frame begun by beginStreamFrame with its CRC
// tail.
func finishStreamFrame(dst []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// parseStreamFrame splits a frame body (already length-delimited by
// wire.ReadBody) into kind and payload, verifying the CRC tail.
func parseStreamFrame(body []byte) (kind byte, payload []byte, err error) {
	if len(body) < streamFrameOverhead {
		return 0, nil, fmt.Errorf("transport: stream frame truncated (%d bytes)", len(body))
	}
	if body[0] != wireFormatStream {
		return 0, nil, fmt.Errorf("transport: not a stream frame (format byte %#x)", body[0])
	}
	tail := len(body) - 4
	if sum := binary.BigEndian.Uint32(body[tail:]); sum != crc32.ChecksumIEEE(body[:tail]) {
		return 0, nil, fmt.Errorf("transport: stream frame checksum mismatch")
	}
	return body[1], body[2:tail], nil
}

// Stream is an open streaming authentication session: windows go in,
// decisions come out, with envelope and model-resolution overhead paid
// once at open. Decisions arrive in push order, so Push k windows then
// Recv k decisions pipelines the link; Authenticate does one of each.
// Methods are safe for concurrent use but serialize on one connection. A
// stream error is sticky and poisons the owning Session: Close then tears
// the connection down instead of returning it to request mode.
type Stream struct {
	sess    *Session
	conn    *wireConn
	timeout time.Duration

	mu      sync.Mutex
	err     error
	pending int
	closed  bool
}

// StartStream performs the stream-open handshake for userID and switches
// the session connection into streaming mode. Until Close, other session
// requests fail fast. The server resolves the user's model once at open;
// a model retrained mid-stream is picked up by the next stream or
// request, not by this one.
func (s *Session) StartStream(userID string) (*Stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		return nil, fmt.Errorf("transport: session is closed")
	}
	if s.streaming {
		return nil, fmt.Errorf("transport: session already has an open stream")
	}
	if err := s.conn.request(s.timeout, TypeStreamOpen, streamOpenRequest{UserID: userID}, nil); err != nil {
		return nil, err
	}
	s.streaming = true
	return &Stream{sess: s, conn: s.conn, timeout: s.timeout}, nil
}

// fail records the first stream error; the stream and its session are
// poisoned from then on.
func (st *Stream) fail(err error) error {
	if st.err == nil {
		st.err = err
	}
	return st.err
}

// push appends one window frame behind the pending ones, writing them
// only once streamFlushBytes are pending. Caller holds st.mu.
func (st *Stream) push(sample features.WindowSample) error {
	if st.closed {
		return fmt.Errorf("transport: stream is closed")
	}
	if st.err != nil {
		return st.err
	}
	c := st.conn
	frame, start := beginStreamFrame(c.out, streamKindWindow, features.EncodedSampleSize(sample))
	c.out = finishStreamFrame(features.AppendSampleBinary(frame, sample), start)
	st.pending++
	if len(c.out) < streamFlushBytes {
		return nil
	}
	if err := c.setDeadline(st.timeout); err != nil {
		return st.fail(err)
	}
	if err := c.flush(); err != nil {
		return st.fail(fmt.Errorf("transport: write window frames: %w", err))
	}
	return nil
}

// recv reads one decision frame. Caller holds st.mu.
func (st *Stream) recv() (AuthDecision, error) {
	if st.closed {
		return AuthDecision{}, fmt.Errorf("transport: stream is closed")
	}
	if st.err != nil {
		return AuthDecision{}, st.err
	}
	if st.pending == 0 {
		return AuthDecision{}, fmt.Errorf("transport: no windows awaiting a decision")
	}
	c := st.conn
	if !c.FrameBuffered() {
		// About to block on the socket: the windows it waits on go first.
		if err := c.setDeadline(st.timeout); err != nil {
			return AuthDecision{}, st.fail(err)
		}
		if len(c.out) > 0 {
			if err := c.flush(); err != nil {
				return AuthDecision{}, st.fail(fmt.Errorf("transport: write window frames: %w", err))
			}
		}
	}
	body, err := c.ReadBody()
	if err != nil {
		return AuthDecision{}, st.fail(fmt.Errorf("transport: read decision frame: %w", err))
	}
	kind, payload, err := parseStreamFrame(body)
	if err != nil {
		return AuthDecision{}, st.fail(err)
	}
	switch kind {
	case streamKindDecision:
		var resp authResponse
		if err := resp.decodeBinary(payload, nil); err != nil {
			return AuthDecision{}, st.fail(fmt.Errorf("transport: decode decision frame: %w", err))
		}
		st.pending--
		return AuthDecision(resp), nil
	case streamKindError:
		return AuthDecision{}, st.fail(&RemoteError{Message: string(payload)})
	default:
		return AuthDecision{}, st.fail(fmt.Errorf("transport: unexpected stream frame kind %d", kind))
	}
}

// Push queues one window frame without waiting for its decision; pair
// with Recv to pipeline several windows per round trip. A pushed window
// leaves on the next Recv that would block, on Close, or once 32 KB of
// windows are pending, so k pushes then k Recvs are one write.
func (st *Stream) Push(sample features.WindowSample) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.push(sample)
}

// Recv reads the next decision frame (decisions arrive in push order).
// When no whole decision is already buffered, it first writes every
// pushed window still pending, then blocks.
func (st *Stream) Recv() (AuthDecision, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.recv()
}

// Authenticate pushes one window and waits for its decision.
func (st *Stream) Authenticate(sample features.WindowSample) (AuthDecision, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.push(sample); err != nil {
		return AuthDecision{}, err
	}
	return st.recv()
}

// Close ends the stream: it sends a close frame, in one write with any
// pushed windows still pending, drains any decisions still in flight,
// waits for the server's sealed acknowledgement, and returns the session
// to request mode. If the stream failed earlier, the connection state is
// unknown, so Close tears down the whole session instead.
func (st *Stream) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	defer func() {
		st.sess.mu.Lock()
		st.sess.streaming = false
		st.sess.mu.Unlock()
	}()
	if st.err != nil {
		_ = st.sess.Close()
		return nil // the failure already surfaced on the op that hit it
	}
	err := st.shutdown()
	if err != nil {
		// A failed shutdown leaves the connection mid-protocol: poison it.
		_ = st.sess.Close()
	}
	return err
}

// shutdown performs the close handshake. Caller holds st.mu.
func (st *Stream) shutdown() error {
	c := st.conn
	if err := c.setDeadline(st.timeout); err != nil {
		return err
	}
	c.out = appendStreamFrame(c.out, streamKindClose, nil)
	if err := c.flush(); err != nil {
		return fmt.Errorf("transport: write close frame: %w", err)
	}
	for {
		body, err := c.ReadBody()
		if err != nil {
			return fmt.Errorf("transport: read close acknowledgement: %w", err)
		}
		if len(body) > 0 && body[0] == wireFormatStream {
			kind, _, err := parseStreamFrame(body)
			if err != nil {
				return err
			}
			if kind == streamKindDecision {
				st.pending-- // drained, undelivered
				continue
			}
			return fmt.Errorf("transport: unexpected stream frame kind %d during close", kind)
		}
		env, err := envelopeFromBody(body)
		if err != nil {
			return err
		}
		_, err = c.answer(env)
		return err
	}
}

// --- server side ---

// streamOpenRequest is the stream-open handshake payload.
type streamOpenRequest struct {
	UserID string `json:"user_id"`
}

// handleStream serves one streaming session after serveConn read a
// stream-open envelope. A handshake failure answers with a sealed error
// and keeps the connection in request mode; an error mid-stream tears the
// connection down (the client's session is poisoned anyway). Returns
// false when serveConn should stop serving the connection.
func (s *Server) handleStream(c *wireConn, env Envelope) bool {
	send := func(msgType string, payload any) bool {
		if err := c.sealPayload(msgType, payload); err != nil {
			s.logf("seal stream response: %v", err)
			return false
		}
		if err := c.flush(); err != nil {
			s.logf("write frame: %v", err)
			return false
		}
		return true
	}

	var req streamOpenRequest
	if err := c.open(env, &req); err != nil {
		s.logf("stream-open failed: %v", err)
		return send(TypeError, errorPayload{Message: err.Error()}) // handshake refused, connection still healthy
	}
	anon, auth, err := s.resolveAuth(c, req.UserID)
	if err != nil {
		s.logf("stream-open failed: %v", err)
		return send(TypeError, errorPayload{Message: err.Error()})
	}
	if !send(TypeOK, nil) {
		return false
	}

	s.wireStreamSessions.Add(1)
	for {
		if len(c.out) >= streamFlushBytes || (len(c.out) > 0 && !c.FrameBuffered()) {
			if err := c.flush(); err != nil {
				s.logf("write decision frames: %v", err)
				return false
			}
		}
		body, err := c.ReadBody()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
				s.logf("read stream frame: %v", err)
			}
			return false
		}
		kind, payload, err := parseStreamFrame(body)
		if err != nil {
			s.logf("stream frame: %v", err)
			return false
		}
		switch kind {
		case streamKindClose:
			return send(TypeOK, nil) // behind the last decisions, back to request mode
		case streamKindWindow:
			r := binio.NewReader(payload)
			sample := features.ReadSampleBinary(r, req.UserID)
			if err := finish(r); err != nil {
				s.logf("decode window frame: %v", err)
				return false
			}
			d, err := auth.Authenticate(sample)
			if err != nil {
				// Surface the failure in-band, then drop the connection: the
				// session cannot continue past an unscorable window.
				c.out = appendStreamFrame(c.out, streamKindError, []byte(err.Error()))
				if werr := c.flush(); werr != nil {
					s.logf("write error frame: %v", werr)
				}
				return false
			}
			s.wireStreamWindows.Add(1)
			s.observeDrift(anon, d.Score, d.Accepted)
			resp := decisionResponse(d)
			frame, start := beginStreamFrame(c.out, streamKindDecision, resp.encodedSize())
			frame, _ = resp.appendBinary(frame)
			c.out = finishStreamFrame(frame, start)
		default:
			s.logf("unexpected stream frame kind %d", kind)
			return false
		}
	}
}
