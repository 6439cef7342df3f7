package transport

import (
	"bytes"
	"testing"

	"smarteryou/internal/core"
)

// FuzzReadFrame throws arbitrary bytes at the framing layer: it must never
// panic and never allocate unbounded memory (the MaxFrameBytes guard).
func FuzzReadFrame(f *testing.F) {
	// Seed with a valid frame, a truncated frame, an oversized header and
	// garbage.
	valid, err := Seal([]byte("k"), TypeStats, nil)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 5, 'j', 'u', 'n', 'k', '!'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte("GET / HTTP/1.1"))
	f.Add([]byte("\x00\x00\x00\x10" + `{"type":"stats"}`)) // JSON envelope: no longer a wire format
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A frame that parses must round-trip through the envelope layer
		// without panicking; MAC verification may fail, which is fine.
		_ = env.Open([]byte("k"), nil)
	})
}

// FuzzEnvelopeOpen fuzzes the authenticated-envelope layer directly.
func FuzzEnvelopeOpen(f *testing.F) {
	f.Add("enroll", []byte(`{"user_id":"u"}`), []byte("mac"))
	f.Add("", []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, msgType string, payload, mac []byte) {
		env := Envelope{Type: msgType, Payload: payload, MAC: mac}
		var out map[string]any
		_ = env.Open([]byte("key"), &out)
	})
}

// FuzzEnvelopeV2 throws arbitrary bytes at the binary envelope decoder —
// the parse, the MAC check, and the typed binary payload decoders behind
// Open must never panic and never allocate past the input's size.
func FuzzEnvelopeV2(f *testing.F) {
	key := []byte("k")
	// Seed with valid v2 frames for the binary payload types.
	seed := func(msgType string, payload any) {
		env, err := Seal(key, msgType, payload)
		if err != nil {
			f.Fatal(err)
		}
		body, err := encodeEnvelopeV2(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	seed(TypeAuthenticate, authRequest{UserID: "u"})
	seed(TypeEnroll, enrollRequest{UserID: "u", Replace: true})
	seed(TypeAuthBatch, batchAuthRequest{UserID: "u"})
	seed(TypeStreamOpen, streamOpenRequest{UserID: "u"})
	seed(TypeTrain, trainRequest{UserID: "u", TrainParams: TrainParams{Mode: core.Mode{Combined: true}, Seed: 3}})
	seed(TypeFetchModel, fetchModelRequest{UserID: "u", Version: 1, IfHash: "00"})
	seed(TypeOK, authResponse{Context: "walking", Score: 1.5, Accepted: true})
	seed(TypeStats, nil)
	f.Add([]byte{wireFormatV2})
	f.Add([]byte{wireFormatV2, 99})

	f.Fuzz(func(t *testing.T, body []byte) {
		env, err := envelopeFromBody(body)
		if err != nil {
			return
		}
		// Try every typed decoder a server or client would reach for; MAC
		// or decode failures are fine, panics are not.
		_ = env.Open(key, nil)
		var auth authRequest
		_ = env.Open(key, &auth)
		var batch batchAuthRequest
		_ = env.Open(key, &batch)
		var enroll enrollRequest
		_ = env.Open(key, &enroll)
		var decision authResponse
		_ = env.Open(key, &decision)
		var model fetchModelResponse
		_ = env.Open(key, &model)
		var train trainRequest
		_ = env.Open(key, &train)
		var fetch fetchModelRequest
		_ = env.Open(key, &fetch)
	})
}

// FuzzBatchAuthPayload targets the batch payload decoders directly (no
// envelope, no MAC): corrupt counts must not drive huge allocations and
// truncation must surface as an error, not a panic.
func FuzzBatchAuthPayload(f *testing.F) {
	req, err := batchAuthRequest{UserID: "user"}.appendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(req)
	resp, err := batchAuthResponse{Decisions: []authResponse{
		{Context: "walking", ContextConfidence: 0.75, Score: 2, Accepted: true},
		{Context: "stationary", Score: -1},
	}}.appendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(resp)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var q batchAuthRequest
		if err := q.decodeBinary(data, nil); err == nil {
			// A payload that decodes must re-encode and decode to the same
			// value (the codec is canonical).
			out, err := q.appendBinary(nil)
			if err != nil {
				t.Fatalf("re-encode decoded payload: %v", err)
			}
			var q2 batchAuthRequest
			if err := q2.decodeBinary(out, nil); err != nil {
				t.Fatalf("re-decode canonical payload: %v", err)
			}
		}
		var p batchAuthResponse
		_ = p.decodeBinary(data, nil)
	})
}
