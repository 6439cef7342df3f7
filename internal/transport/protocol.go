// Package transport implements the distributed pieces of the SmarterYou
// architecture (Fig. 1): the cloud Authentication Server that stores
// anonymized population data and trains models, the smartphone client that
// enrolls, downloads models and requests retraining, and the simulated
// Bluetooth link that streams smartwatch sensor data to the phone.
//
// The wire protocol is one length-prefixed binary envelope over TCP
// (wirev2.go). Every message carries an HMAC-SHA256 tag keyed by a
// pre-shared secret, standing in for the SSL/TLS channel protection of
// Section IV-C (stdlib-only constraint: no certificate infrastructure, but
// integrity and a form of origin authentication are real).
package transport

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"slices"
	"sync"
	"time"
)

// Message types exchanged between phone and Authentication Server.
const (
	// TypeEnroll uploads a user's labelled feature windows (enrollment or
	// retraining upload).
	TypeEnroll = "enroll"
	// TypeFetchDetector downloads the user-agnostic context-detection
	// model.
	TypeFetchDetector = "fetch-detector"
	// TypeTrain asks the server to train authentication models for a user
	// and returns the model bundle.
	TypeTrain = "train"
	// TypeFetchModel downloads a previously trained model bundle from the
	// server's versioned registry without retraining (requires the server
	// to run with durable storage).
	TypeFetchModel = "fetch-model"
	// TypeStats asks the server for its population statistics.
	TypeStats = "stats"
	// TypeAuthenticate asks the server to classify one feature window with
	// the user's current model — the cloud-side check used by services that
	// outsource the testing module (Section IV-B). Served inline, never
	// queued behind training.
	TypeAuthenticate = "authenticate"
	// TypeAuthBatch classifies many feature windows for one user in a
	// single round trip: one model resolution, one envelope, one response.
	// The continuous feed of Section IV-B arrives in bursts, and batching
	// amortizes the per-request overhead across the burst.
	TypeAuthBatch = "auth-batch"
	// TypeStreamOpen switches the connection into streaming session mode:
	// the HMAC handshake and user/model resolution happen once, then raw
	// window frames flow in and decision frames flow out until a close
	// frame returns the connection to request mode.
	TypeStreamOpen = "stream-open"
	// TypeRetrain nudges the server's drift-retrain scheduler to consider
	// the user now, as if the drift monitor had emitted a candidate — an
	// operator/device-initiated entry into the same coalesced, budgeted
	// queue (never a direct train). Requires the server to run with the
	// retrain subsystem enabled; a cluster node that does not own the
	// user's shard redirects it to the owner.
	TypeRetrain = "retrain"
	// TypeShardMap asks a cluster node for the current versioned shard map
	// (shard index → owning node's client address) so the client can route
	// writes straight to owners. Fails on servers that are not part of a
	// cluster.
	TypeShardMap = "shard-map"
	// TypeDriftState asks the server for per-user drift-monitor state —
	// confidence EWMA and last-train age — either for one user or the most
	// drifted slice of the population. Requires the retrain subsystem.
	TypeDriftState = "drift-state"
	// TypeOK is a generic success response.
	TypeOK = "ok"
	// TypeBusy reports that the server's training queue (or the retrain
	// scheduler's candidate queue) is full, or that the user's shard is
	// sealed mid-handoff; the client should retry after the indicated delay.
	// Only writes (enroll, train, retrain) are ever answered with TypeBusy.
	TypeBusy = "busy"
	// TypeRedirect reports that the write (enroll, train or retrain)
	// belongs to another cluster node — the owner of the user's shard —
	// whose client address is carried in the payload.
	TypeRedirect = "redirect"
	// TypeError carries a server-side failure.
	TypeError = "error"
)

// Protocol limits.
const (
	// MaxFrameBytes bounds a single frame; model bundles and enrollment
	// batches are well under this.
	MaxFrameBytes = 64 << 20
)

// Errors returned by the framing layer.
var (
	// ErrBadMAC indicates a message failed integrity verification.
	ErrBadMAC = errors.New("transport: message authentication failed")
	// ErrFrameTooLarge indicates a declared frame length above the limit.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
)

// Frame kinds, distinguished by the first byte of the frame body. Any
// other first byte is rejected by envelopeFromBody and the server drops the
// connection — '{' (0x7B) included, so a client speaking a JSON envelope
// fails on its first frame instead of being half-understood.
const (
	// wireFormatV2 marks the binary envelope: format byte, type byte, raw
	// HMAC-SHA256, then the payload bytes.
	wireFormatV2 byte = 0x02
	// wireFormatStream marks a raw streaming frame (window in, decision
	// out) inside an open streaming session; see stream.go. Never valid in
	// request mode.
	wireFormatStream byte = 0x03
)

// Envelope is the authenticated wrapper around every protocol message.
type Envelope struct {
	Type    string
	Payload json.RawMessage
	MAC     []byte
}

// macPools recycles HMAC states per key for the exported Seal and Open,
// which have no connection to keep one on: hmac.New allocates two hash
// states plus padding buffers. Keys are few (one per deployment, more
// only in tests), so the map stays tiny.
var macPools sync.Map // string(key) -> *sync.Pool of hash.Hash

func macPool(key []byte) *sync.Pool {
	if p, ok := macPools.Load(string(key)); ok {
		return p.(*sync.Pool)
	}
	k := append([]byte(nil), key...) // the pool outlives the caller's slice
	p := &sync.Pool{New: func() any { return hmac.New(sha256.New, k) }}
	actual, _ := macPools.LoadOrStore(string(k), p)
	return actual.(*sync.Pool)
}

// macPrefix is the MAC input ahead of the payload, per type byte: the
// type string and a 0x00 separator, so a tag binds the verb it was
// sealed for.
var macPrefix = func() (t [typeByteDriftState + 1][]byte) {
	for s, b := range typeToByte {
		t[b] = append([]byte(s), 0)
	}
	return t
}()

// macPrefixFor is macPrefix by type string. Seal and Open take any type
// string, so one without a type byte gets its prefix built on the spot.
func macPrefixFor(msgType string) []byte {
	if tb, ok := typeToByte[msgType]; ok {
		return macPrefix[tb]
	}
	return append([]byte(msgType), 0)
}

// sumMAC writes HMAC-SHA256(prefix || payload) into mac[:sha256.Size]
// with h, an HMAC keyed by the pre-shared key. mac may be the MAC slot of
// a frame whose payload follows it: the tag is written in place and no
// byte outside the slot is touched.
func sumMAC(h hash.Hash, mac, prefix, payload []byte) {
	h.Reset()
	h.Write(prefix)
	h.Write(payload)
	h.Sum(mac[:0])
}

// frameHeaderBytes is what precedes the payload in a request-mode frame:
// the length prefix, then the envelope's format byte, type byte and MAC.
const frameHeaderBytes = 4 + v2HeaderBytes

// beginFrame appends the header of a frame of type tb to dst with the
// length and the MAC left blank. The caller appends the payload straight
// behind it and finishes the frame with sealFrame.
func beginFrame(dst []byte, tb byte) []byte {
	var blank [frameHeaderBytes]byte
	blank[4], blank[5] = wireFormatV2, tb
	return append(dst, blank[:]...)
}

// sealFrame finishes a frame begun by beginFrame: it writes the length
// prefix and computes the MAC in place over the payload bytes already in
// the frame, with prefix as the type input. It is the one way anything
// in this package is sealed.
func sealFrame(h hash.Hash, frame, prefix []byte) error {
	n := len(frame) - 4
	if n > MaxFrameBytes {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	sumMAC(h, frame[6:frameHeaderBytes], prefix, frame[frameHeaderBytes:])
	return nil
}

// appendPayload encodes a payload value behind dst. Payloads
// implementing binaryAppender (the hot verbs) are encoded as fixed-width
// binary; everything else stays JSON inside the frame (the payload is
// self-describing: binary starts with binPayloadMarker, JSON with '{').
func appendPayload(dst []byte, payload any) ([]byte, error) {
	switch enc := payload.(type) {
	case nil:
		return dst, nil
	case binaryAppender:
		return enc.appendBinary(append(dst, binPayloadMarker))
	default:
		b, err := json.Marshal(payload)
		return append(dst, b...), err
	}
}

// decodePayload decodes a verified payload into out (out may be nil for
// payload-less messages). Binary payloads require out to implement
// binaryDecoder; JSON payloads are unmarshalled.
func decodePayload(msgType string, payload []byte, out any) error {
	if out == nil {
		return nil
	}
	if len(payload) > 0 && payload[0] == binPayloadMarker {
		dec, ok := out.(binaryDecoder)
		if !ok {
			return fmt.Errorf("transport: %s payload is binary but %T cannot decode it", msgType, out)
		}
		if err := dec.decodeBinary(payload[1:]); err != nil {
			return fmt.Errorf("transport: decode %s payload: %w", msgType, err)
		}
		return nil
	}
	if err := json.Unmarshal(payload, out); err != nil {
		return fmt.Errorf("transport: unmarshal %s payload: %w", msgType, err)
	}
	return nil
}

// Seal builds an authenticated envelope for the payload value: the frame
// a connection would send, with the envelope's MAC and payload sliced out
// of it.
func Seal(key []byte, msgType string, payload any) (Envelope, error) {
	frame, err := appendPayload(beginFrame(nil, typeToByte[msgType]), payload)
	if err != nil {
		return Envelope{}, fmt.Errorf("transport: encode %s payload: %w", msgType, err)
	}
	pool := macPool(key)
	h := pool.Get().(hash.Hash)
	defer pool.Put(h)
	if err := sealFrame(h, frame, macPrefixFor(msgType)); err != nil {
		return Envelope{}, err
	}
	return Envelope{
		Type:    msgType,
		MAC:     frame[6:frameHeaderBytes:frameHeaderBytes],
		Payload: frame[frameHeaderBytes:],
	}, nil
}

// verifyMAC checks an envelope's tag with h, using sum (sha256.Size
// bytes) as scratch.
func verifyMAC(h hash.Hash, sum []byte, e Envelope) error {
	sumMAC(h, sum, macPrefixFor(e.Type), e.Payload)
	if !hmac.Equal(e.MAC, sum[:sha256.Size]) {
		return ErrBadMAC
	}
	return nil
}

// Open verifies the envelope's MAC and decodes the payload into out (out
// may be nil for payload-less messages); see decodePayload.
func (e Envelope) Open(key []byte, out any) error {
	pool := macPool(key)
	h := pool.Get().(hash.Hash)
	err := verifyMAC(h, make([]byte, sha256.Size), e)
	pool.Put(h)
	if err != nil {
		return err
	}
	return decodePayload(e.Type, e.Payload, out)
}

// readFrameBody reads one length-prefixed frame body into buf's backing
// array, which is grown only when the frame does not fit, and enforces
// MaxFrameBytes before allocating anything. Every read path — server
// request loop, client response path, streaming frames — funnels through
// here, so the bound holds symmetrically: a misbehaving peer on either
// side cannot force an unbounded allocation. A connection passes its
// bufio.Reader, so a frame that has arrived whole costs one read from the
// socket.
func readFrameBody(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	header := buf[:4]
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(header)
	if n > MaxFrameBytes {
		return nil, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("transport: read frame body: %w", err)
	}
	return body, nil
}

// appendEnvelope lays an already sealed envelope out as a frame, length
// prefix included.
func appendEnvelope(dst []byte, e Envelope) ([]byte, error) {
	tb, ok := typeToByte[e.Type]
	if !ok {
		return nil, fmt.Errorf("transport: type %q has no v2 type byte", e.Type)
	}
	if len(e.MAC) != sha256.Size {
		return nil, fmt.Errorf("transport: v2 envelope needs a %d-byte MAC, have %d", sha256.Size, len(e.MAC))
	}
	if v2HeaderBytes+len(e.Payload) > MaxFrameBytes {
		return nil, ErrFrameTooLarge
	}
	dst = slices.Grow(dst, frameHeaderBytes+len(e.Payload))
	dst = binary.BigEndian.AppendUint32(dst, uint32(v2HeaderBytes+len(e.Payload)))
	dst = append(dst, wireFormatV2, tb)
	dst = append(dst, e.MAC...)
	return append(dst, e.Payload...), nil
}

// WriteFrame writes one envelope as a length-prefixed frame, with one
// Write.
func WriteFrame(w io.Writer, e Envelope) error {
	frame, err := appendEnvelope(nil, e)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed envelope, and not a byte past it.
// The MAC is not checked here — Open does that.
func ReadFrame(r io.Reader) (Envelope, error) {
	body, err := readFrameBody(r, nil)
	if err != nil {
		return Envelope{}, err
	}
	return envelopeFromBody(body)
}

// envelopeFromBody decodes an already length-delimited frame body into an
// envelope whose MAC and payload alias body.
func envelopeFromBody(body []byte) (Envelope, error) {
	if len(body) == 0 {
		return Envelope{}, fmt.Errorf("transport: empty frame")
	}
	switch body[0] {
	case wireFormatV2:
		return parseEnvelopeV2(body)
	case wireFormatStream:
		return Envelope{}, fmt.Errorf("transport: streaming frame outside an open stream")
	default:
		return Envelope{}, fmt.Errorf("transport: unknown wire format byte %#x", body[0])
	}
}

// errorPayload is the body of a TypeError response.
type errorPayload struct {
	Message string `json:"message"`
}

// busyPayload is the body of a TypeBusy response.
type busyPayload struct {
	Message           string  `json:"message"`
	RetryAfterSeconds float64 `json:"retry_after_seconds"`
}

// redirectPayload is the body of a TypeRedirect response.
type redirectPayload struct {
	Message string `json:"message"`
	// Leader is the owning node's client-facing address.
	Leader string `json:"leader,omitempty"`
}

// RemoteError is a server-reported failure surfaced to the client.
type RemoteError struct {
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return "transport: server error: " + e.Message
}

// BusyError reports that the server refused a training request because its
// worker queue was full. RetryAfter is the server's suggested backoff.
// Check for it with errors.As; the request was never started, so retrying
// is always safe.
type BusyError struct {
	Message    string
	RetryAfter time.Duration
}

// Error implements error.
func (e *BusyError) Error() string {
	return fmt.Sprintf("transport: server busy (retry after %s): %s", e.RetryAfter, e.Message)
}

// RedirectError reports that the contacted server does not own the
// user's shard; the write must go to the owner at Leader instead. Check
// for it with errors.As and re-issue the request against Leader.
type RedirectError struct {
	Message string
	// Leader is the owning node's client address, "" if unknown.
	Leader string
}

// Error implements error.
func (e *RedirectError) Error() string {
	if e.Leader == "" {
		return "transport: write belongs to another node: " + e.Message
	}
	return fmt.Sprintf("transport: write belongs to another node (owner at %s): %s", e.Leader, e.Message)
}
