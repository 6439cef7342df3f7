package transport

import (
	"bytes"
	"strings"
	"testing"

	"smarteryou/internal/binio"
	"smarteryou/internal/core"
)

// rawPayload keeps a binary response payload undecoded.
type rawPayload struct{ b []byte }

func (p *rawPayload) decodeBinary(b []byte, _ *identityCache) error {
	p.b = append([]byte(nil), b...)
	return nil
}

// TestTrainAnswersWithTheStoredBlob: the bundle a train response carries
// is, byte for byte, the blob the registry stored for that version — the
// bytes a fetch-model answer carries.
func TestTrainAnswersWithTheStoredBlob(t *testing.T) {
	det, byUser := buildFixture(t)
	srv, addr := startServer(t, det)
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	for _, id := range []string{"user-00", "user-01"} {
		if _, err := client.Enroll(id, byUser[id]); err != nil {
			t.Fatalf("Enroll %s: %v", id, err)
		}
	}
	var raw rawPayload
	req := trainRequest{UserID: "user-00", TrainParams: TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: 3}}
	if err := client.roundTrip(TypeTrain, req, &raw); err != nil {
		t.Fatalf("train: %v", err)
	}
	r := binio.NewReader(raw.b)
	version := int(r.Uvarint())
	sent := r.Bytes()
	if err := finish(r); err != nil {
		t.Fatalf("train response: %v", err)
	}
	stored, _, storedVersion, err := srv.persist.LatestModelBlob(anonymize("user-00"))
	if err != nil {
		t.Fatalf("LatestModelBlob: %v", err)
	}
	if version != 1 || storedVersion != 1 {
		t.Fatalf("train answered v%d, registry holds v%d; want v1", version, storedVersion)
	}
	if !bytes.Equal(sent, stored) {
		t.Fatalf("train sent %d bundle bytes that differ from the %d the registry stored", len(sent), len(stored))
	}
}

// TestConditionalFetchComparesDecodedHash: a fetch-model whose IfHash
// names the latest bundle is answered unchanged, for the latest and for
// its version by number; a stale or undecodable IfHash gets the bundle in
// full, with its hash in hex.
func TestConditionalFetchComparesDecodedHash(t *testing.T) {
	det, byUser := buildFixture(t)
	srv, addr := startServer(t, det)
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	for _, id := range []string{"user-00", "user-01"} {
		if _, err := client.Enroll(id, byUser[id]); err != nil {
			t.Fatalf("Enroll %s: %v", id, err)
		}
	}
	if _, err := client.Train("user-00", TrainParams{Seed: 1}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	_, hash, err := srv.persist.LatestModelHash(anonymize("user-00"))
	if err != nil {
		t.Fatalf("LatestModelHash: %v", err)
	}
	for _, tc := range []struct {
		name      string
		version   int
		ifHash    string
		unchanged bool
	}{
		{"latest, current hash", 0, hash.Hex(), true},
		{"v1, current hash", 1, hash.Hex(), true},
		{"latest, stale hash", 0, strings.Repeat("0", 64), false},
		{"latest, not hex", 0, strings.Repeat("z", 64), false},
		{"latest, short", 0, hash.Hex()[:10], false},
	} {
		var resp fetchModelResponse
		req := fetchModelRequest{UserID: "user-00", Version: tc.version, IfHash: tc.ifHash}
		if err := client.roundTrip(TypeFetchModel, req, &resp); err != nil {
			t.Fatalf("%s: fetch: %v", tc.name, err)
		}
		if resp.Unchanged != tc.unchanged || resp.Version != 1 {
			t.Errorf("%s: unchanged %v at v%d, want %v at v1", tc.name, resp.Unchanged, resp.Version, tc.unchanged)
		}
		if !tc.unchanged && (resp.Bundle == nil || resp.Hash != hash.Hex()) {
			t.Errorf("%s: full answer with bundle nil=%v and hash %q, want the bundle and %q", tc.name, resp.Bundle == nil, resp.Hash, hash.Hex())
		}
	}
}
