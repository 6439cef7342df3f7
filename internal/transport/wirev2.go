package transport

import (
	"encoding/json"
	"fmt"

	"smarteryou/internal/binio"
	"smarteryou/internal/core"
	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
	"smarteryou/internal/wire"
)

// The wire envelope — the only one the server reads or writes, a sealed
// frame of internal/wire whose names are the Type* strings. Hot payloads
// reuse the store's binary WindowSample codec (internal/features) so a
// window is never stringified on its way to the scorer.
//
//	frame body:
//	  [0]     wireFormatV2
//	  [1]     type byte (mapped 1:1 to the Type* strings below)
//	  [2:34]  raw HMAC-SHA256 over type-string || 0x00 || payload
//	  [34:]   payload bytes
//
// The payload is self-describing: binPayloadMarker (0x01) introduces a
// binary payload (authenticate, batch, stream open, enroll, train and
// fetch-model requests, and their answers), '{' a JSON one (everything
// else — stats, detector, errors). The server reads either form of every
// request.

// binPayloadMarker introduces a binary payload inside an envelope. Like
// the store's format byte it can never collide with '{'.
const binPayloadMarker byte = 0x01

// Type bytes, mapped 1:1 to the Type* strings.
const (
	typeByteEnroll        byte = 1
	typeByteFetchDetector byte = 2
	typeByteTrain         byte = 3
	typeByteFetchModel    byte = 4
	typeByteStats         byte = 5
	typeByteAuthenticate  byte = 6
	typeByteRetrain       byte = 7
	typeByteAuthBatch     byte = 8
	typeByteStreamOpen    byte = 9
	typeByteOK            byte = 10
	typeByteBusy          byte = 11
	typeByteRedirect      byte = 12
	typeByteError         byte = 13
	typeByteShardMap      byte = 14
	typeByteDriftState    byte = 15
)

var typeToByte = map[string]byte{
	TypeEnroll:        typeByteEnroll,
	TypeFetchDetector: typeByteFetchDetector,
	TypeTrain:         typeByteTrain,
	TypeFetchModel:    typeByteFetchModel,
	TypeStats:         typeByteStats,
	TypeAuthenticate:  typeByteAuthenticate,
	TypeRetrain:       typeByteRetrain,
	TypeAuthBatch:     typeByteAuthBatch,
	TypeStreamOpen:    typeByteStreamOpen,
	TypeOK:            typeByteOK,
	TypeBusy:          typeByteBusy,
	TypeRedirect:      typeByteRedirect,
	TypeError:         typeByteError,
	TypeShardMap:      typeByteShardMap,
	TypeDriftState:    typeByteDriftState,
}

var byteToType = func() map[byte]string {
	m := make(map[byte]string, len(typeToByte))
	for s, b := range typeToByte {
		m[b] = s
	}
	return m
}()

// encodeEnvelopeV2 lays a sealed envelope out as a v2 frame body: the
// frame WriteFrame sends, without its length prefix.
func encodeEnvelopeV2(e Envelope) ([]byte, error) {
	frame, err := appendEnvelope(nil, e)
	if err != nil {
		return nil, err
	}
	return frame[4:], nil
}

// parseEnvelopeV2 decodes a v2 frame body, a sealed frame of the client
// channel. The MAC is not checked here — Open does that.
func parseEnvelopeV2(body []byte) (Envelope, error) {
	tb, mac, payload, err := wire.Parse(body)
	if err != nil {
		return Envelope{}, err
	}
	msgType, ok := byteToType[tb]
	if !ok {
		return Envelope{}, fmt.Errorf("transport: unknown v2 type byte %d", tb)
	}
	return Envelope{Type: msgType, MAC: mac, Payload: payload}, nil
}

// binaryAppender is the encode half of a binary payload: append the
// encoding to dst and return it. Implemented on payload values.
type binaryAppender interface {
	appendBinary(dst []byte) ([]byte, error)
}

// binaryDecoder is the decode half, implemented on payload pointers. The
// input excludes the binPayloadMarker byte and must be fully consumed. A
// request reads its user id through ids (see identityCache.readUserID).
type binaryDecoder interface {
	decodeBinary(b []byte, ids *identityCache) error
}

// finish is the common decoder epilogue: surface the first decode error,
// then reject trailing bytes (a framing bug or corruption).
func finish(r *binio.Reader) error {
	if err := r.Err(); err != nil {
		return err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("%d trailing bytes", n)
	}
	return nil
}

// --- authenticate ---

func (q authRequest) appendBinary(dst []byte) ([]byte, error) {
	dst = binio.AppendString(dst, q.UserID)
	return features.AppendSampleBinary(dst, q.Sample), nil
}

// decodeBinary interns the window's user id against the request's: a
// genuine window carries the id it is authenticated as.
func (q *authRequest) decodeBinary(b []byte, ids *identityCache) error {
	r := binio.NewReader(b)
	q.UserID = ids.readUserID(r)
	q.Sample = features.ReadSampleBinary(r, q.UserID)
	return finish(r)
}

func (p authResponse) appendBinary(dst []byte) ([]byte, error) {
	dst = binio.AppendString(dst, p.Context)
	dst = binio.AppendF64(dst, p.ContextConfidence)
	dst = binio.AppendF64(dst, p.Score)
	if p.Accepted {
		return append(dst, 1), nil
	}
	return append(dst, 0), nil
}

func (p *authResponse) decodeBinary(b []byte, _ *identityCache) error {
	r := binio.NewReader(b)
	*p = readDecision(r)
	return finish(r)
}

// contextNames are the values a decision's context takes, interned on
// decode.
var contextNames = []string{sensing.CoarseStationary.String(), sensing.CoarseMoving.String()}

// readDecision reads one decision as authResponse.appendBinary wrote it.
func readDecision(r *binio.Reader) authResponse {
	return authResponse{
		Context:           r.Intern(contextNames...),
		ContextConfidence: r.F64(),
		Score:             r.F64(),
		Accepted:          r.Byte() != 0,
	}
}

// minDecisionBytes bounds batch decision counts: empty context string
// (1 byte), two float64s, accepted byte.
const minDecisionBytes = 1 + 8 + 8 + 1

// encodedSize is the exact appendBinary output size, for single-pass
// frame building.
func (p authResponse) encodedSize() int {
	return binio.UvarintLen(uint64(len(p.Context))) + len(p.Context) + 8 + 8 + 1
}

// --- batch authenticate ---

func (q batchAuthRequest) appendBinary(dst []byte) ([]byte, error) {
	dst = binio.AppendString(dst, q.UserID)
	return features.AppendSampleListBinary(dst, q.Samples), nil
}

// decodeBinary interns the windows' user ids as authRequest's does.
func (q *batchAuthRequest) decodeBinary(b []byte, ids *identityCache) error {
	r := binio.NewReader(b)
	q.UserID = ids.readUserID(r)
	q.Samples = features.ReadSampleListBinary(r, q.UserID)
	return finish(r)
}

func (p batchAuthResponse) appendBinary(dst []byte) ([]byte, error) {
	dst = binio.AppendUvarint(dst, uint64(len(p.Decisions)))
	var err error
	for _, d := range p.Decisions {
		if dst, err = d.appendBinary(dst); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func (p *batchAuthResponse) decodeBinary(b []byte, _ *identityCache) error {
	r := binio.NewReader(b)
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if n > uint64(r.Remaining()/minDecisionBytes)+1 {
		return fmt.Errorf("decision count %d exceeds %d remaining bytes", n, r.Remaining())
	}
	p.Decisions = make([]authResponse, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		p.Decisions = append(p.Decisions, readDecision(r))
	}
	return finish(r)
}

// --- enroll ---

func (q enrollRequest) appendBinary(dst []byte) ([]byte, error) {
	dst = binio.AppendString(dst, q.UserID)
	if q.Replace {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return features.AppendSampleListBinary(dst, q.Samples), nil
}

func (q *enrollRequest) decodeBinary(b []byte, ids *identityCache) error {
	r := binio.NewReader(b)
	q.UserID = ids.readUserID(r)
	q.Replace = r.Byte() != 0
	q.Samples = features.ReadSampleListBinary(r, q.UserID)
	return finish(r)
}

func (p enrollResponse) appendBinary(dst []byte) ([]byte, error) {
	return binio.AppendUvarint(dst, uint64(p.Stored)), nil
}

func (p *enrollResponse) decodeBinary(b []byte, _ *identityCache) error {
	r := binio.NewReader(b)
	p.Stored = int(r.Uvarint())
	return finish(r)
}

// --- model downloads ---
// A trained bundle has no fixed width (per-context models, feature
// subsets), so like the store's publish records it travels as a
// length-prefixed JSON blob behind a uvarint version — the envelope and
// MAC overhead still drop, and the bundle is decoded once, not re-escaped
// through an intermediate JSON envelope string. A train or fetch-model
// answer carries the registry's blob as stored: the server encodes a
// bundle once, to publish it, and never decodes one to send it.

func readBundle(r *binio.Reader) (int, *core.ModelBundle) {
	version := int(r.Uvarint())
	blob := r.Bytes()
	if r.Err() != nil {
		return 0, nil
	}
	var bundle core.ModelBundle
	if err := json.Unmarshal(blob, &bundle); err != nil {
		r.Fail("bundle blob: %s", err)
		return 0, nil
	}
	return version, &bundle
}

func (p fetchModelResponse) appendBinary(dst []byte) ([]byte, error) {
	dst = binio.AppendUvarint(dst, uint64(p.Version))
	dst = binio.AppendString(dst, p.Hash)
	if p.Unchanged {
		return append(dst, 1), nil
	}
	return binio.AppendBytes(append(dst, 0), p.blob), nil
}

func (p *fetchModelResponse) decodeBinary(b []byte, _ *identityCache) error {
	r := binio.NewReader(b)
	p.Version = int(r.Uvarint())
	p.Hash = r.Str()
	switch flag := r.Byte(); flag {
	case 1:
		p.Unchanged = true
	case 0:
		blob := r.Bytes()
		if r.Err() == nil {
			bundle, err := core.UnmarshalModelBundle(blob)
			if err != nil {
				r.Fail("bundle blob: %s", err)
			}
			p.Bundle = bundle
		}
	default:
		r.Fail("unchanged flag %d", flag)
	}
	return finish(r)
}

func (q fetchModelRequest) appendBinary(dst []byte) ([]byte, error) {
	dst = binio.AppendString(dst, q.UserID)
	dst = binio.AppendUvarint(dst, uint64(q.Version))
	return binio.AppendString(dst, q.IfHash), nil
}

func (q *fetchModelRequest) decodeBinary(b []byte, ids *identityCache) error {
	r := binio.NewReader(b)
	q.UserID = ids.readUserID(r)
	q.Version = int(r.Uvarint())
	q.IfHash = r.Str()
	return finish(r)
}

// Train mode flags, one bit per core.Mode field.
const (
	modeCombined   byte = 1 << 0
	modeUseContext byte = 1 << 1
)

func (q trainRequest) appendBinary(dst []byte) ([]byte, error) {
	dst = binio.AppendString(dst, q.UserID)
	var mode byte
	if q.Mode.Combined {
		mode |= modeCombined
	}
	if q.Mode.UseContext {
		mode |= modeUseContext
	}
	dst = append(dst, mode)
	dst = binio.AppendF64(dst, q.Rho)
	dst = binio.AppendUvarint(dst, uint64(q.MaxPerClass))
	dst = binio.AppendF64(dst, q.TargetFRR)
	return binio.AppendU64(dst, uint64(q.Seed)), nil
}

func (q *trainRequest) decodeBinary(b []byte, ids *identityCache) error {
	r := binio.NewReader(b)
	q.UserID = ids.readUserID(r)
	mode := r.Byte()
	if mode&^(modeCombined|modeUseContext) != 0 {
		r.Fail("train mode flags %#x", mode)
	}
	q.Mode = core.Mode{Combined: mode&modeCombined != 0, UseContext: mode&modeUseContext != 0}
	q.Rho = r.F64()
	q.MaxPerClass = int(r.Uvarint())
	q.TargetFRR = r.F64()
	q.Seed = int64(r.U64())
	return finish(r)
}

func (p trainResponse) appendBinary(dst []byte) ([]byte, error) {
	dst = binio.AppendUvarint(dst, uint64(p.Version))
	return binio.AppendBytes(dst, p.blob), nil
}

func (p *trainResponse) decodeBinary(b []byte, _ *identityCache) error {
	r := binio.NewReader(b)
	p.Version, p.Bundle = readBundle(r)
	return finish(r)
}

// --- stream open ---

func (q streamOpenRequest) appendBinary(dst []byte) ([]byte, error) {
	return binio.AppendString(dst, q.UserID), nil
}

func (q *streamOpenRequest) decodeBinary(b []byte, ids *identityCache) error {
	r := binio.NewReader(b)
	q.UserID = ids.readUserID(r)
	return finish(r)
}
