// Package transport implements the distributed pieces of the SmarterYou
// architecture (Fig. 1): the cloud Authentication Server that stores
// anonymized population data and trains models, the smartphone client that
// enrolls, downloads models and requests retraining, and the simulated
// Bluetooth link that streams smartwatch sensor data to the phone.
//
// The wire protocol is one length-prefixed binary envelope over TCP
// (wirev2.go): the sealed frame of internal/wire, whose HMAC-SHA256 tag
// under a pre-shared secret stands in for the SSL/TLS channel protection
// of Section IV-C.
package transport

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"slices"
	"sync"
	"time"

	"smarteryou/internal/wire"
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

// Frame kinds, distinguished by the first byte of the frame body. Any
// other first byte is rejected by envelopeFromBody and the server drops the
// connection — '{' (0x7B) included, so a client speaking a JSON envelope
// fails on its first frame instead of being half-understood.
const (
	// wireFormatV2 marks the binary envelope, a sealed frame: format
	// byte, type byte, raw HMAC-SHA256, then the payload bytes.
	wireFormatV2 = wire.FormatSealed
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
var macPrefix = wire.NewNames(byteToType)

// macPrefixFor is macPrefix by type string. Seal and Open take any type
// string, so one without a type byte gets its prefix built on the spot.
func macPrefixFor(msgType string) []byte {
	if tb, ok := typeToByte[msgType]; ok {
		return macPrefix[tb]
	}
	return append([]byte(msgType), 0)
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
// binaryDecoder, and read user ids through ids (nil: copies); JSON
// payloads are unmarshalled.
func decodePayload(msgType string, payload []byte, out any, ids *identityCache) error {
	if out == nil {
		return nil
	}
	if len(payload) > 0 && payload[0] == binPayloadMarker {
		dec, ok := out.(binaryDecoder)
		if !ok {
			return fmt.Errorf("transport: %s payload is binary but %T cannot decode it", msgType, out)
		}
		if err := dec.decodeBinary(payload[1:], ids); err != nil {
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
	frame, err := appendPayload(wire.Begin(nil, typeToByte[msgType]), payload)
	if err != nil {
		return Envelope{}, fmt.Errorf("transport: encode %s payload: %w", msgType, err)
	}
	pool := macPool(key)
	h := pool.Get().(hash.Hash)
	defer pool.Put(h)
	if err := wire.Seal(h, frame, macPrefixFor(msgType), MaxFrameBytes); err != nil {
		return Envelope{}, err
	}
	return Envelope{
		Type:    msgType,
		MAC:     frame[6:wire.HeaderBytes:wire.HeaderBytes],
		Payload: frame[wire.HeaderBytes:],
	}, nil
}

// Open verifies the envelope's MAC and decodes the payload into out (out
// may be nil for payload-less messages); see decodePayload.
func (e Envelope) Open(key []byte, out any) error {
	pool := macPool(key)
	h := pool.Get().(hash.Hash)
	err := wire.Verify(h, new([sha256.Size]byte), macPrefixFor(e.Type), e.MAC, e.Payload)
	pool.Put(h)
	if err != nil {
		return err
	}
	return decodePayload(e.Type, e.Payload, out, nil)
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
	if wire.HeaderBytes-4+len(e.Payload) > MaxFrameBytes {
		return nil, wire.ErrFrameTooLarge
	}
	dst = slices.Grow(dst, wire.HeaderBytes+len(e.Payload))
	dst = binary.BigEndian.AppendUint32(dst, uint32(wire.HeaderBytes-4+len(e.Payload)))
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
	body, err := wire.ReadBody(r, nil, MaxFrameBytes)
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
