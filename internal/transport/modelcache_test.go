package transport

import (
	"testing"

	"smarteryou/internal/core"
)

// TestFetchModelConditionalCache pins the ETag-style model fetch: the
// first fetch fills the client's by-hash cache, the second sends the held
// hash and the server answers "unchanged" without re-serializing the
// bundle — observable as pointer identity on the returned bundle. A
// republish must invalidate: the next fetch carries a stale hash and gets
// the new bundle in full.
func TestFetchModelConditionalCache(t *testing.T) {
	det, byUser := buildFixture(t)
	srv, st, addr := startPersistentServer(t, det, t.TempDir())
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close server: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Errorf("Close store: %v", err)
		}
	}()
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	for _, id := range []string{"user-00", "user-01"} {
		if _, err := client.Enroll(id, byUser[id]); err != nil {
			t.Fatalf("Enroll %s: %v", id, err)
		}
	}
	if _, _, err := client.TrainVersioned("user-00", TrainParams{
		Mode: core.Mode{Combined: true}, Seed: 3,
	}); err != nil {
		t.Fatalf("Train: %v", err)
	}

	first, v, err := client.FetchModel("user-00", 0)
	if err != nil {
		t.Fatalf("FetchModel (cold): %v", err)
	}
	if v != 1 {
		t.Fatalf("cold fetch version = %d, want 1", v)
	}
	again, v, err := client.FetchModel("user-00", 0)
	if err != nil {
		t.Fatalf("FetchModel (warm): %v", err)
	}
	if v != 1 {
		t.Fatalf("warm fetch version = %d, want 1", v)
	}
	if again != first {
		t.Fatal("warm fetch re-shipped the bundle instead of answering unchanged")
	}
	// The explicit-version form hits the cache too when the version
	// matches the cached one.
	byVersion, _, err := client.FetchModel("user-00", 1)
	if err != nil {
		t.Fatalf("FetchModel (by version): %v", err)
	}
	if byVersion != first {
		t.Fatal("by-version fetch of the cached version re-shipped the bundle")
	}

	// Republish: the held hash goes stale and the client must get
	// the new model, not its cached copy.
	if _, _, err := client.TrainVersioned("user-00", TrainParams{
		Mode: core.Mode{Combined: true}, Seed: 4,
	}); err != nil {
		t.Fatalf("Train v2: %v", err)
	}
	fresh, v, err := client.FetchModel("user-00", 0)
	if err != nil {
		t.Fatalf("FetchModel (stale): %v", err)
	}
	if v != 2 {
		t.Fatalf("post-republish version = %d, want 2", v)
	}
	if fresh == first {
		t.Fatal("client returned the stale cached bundle after a republish")
	}
	cachedFresh, _, err := client.FetchModel("user-00", 0)
	if err != nil {
		t.Fatalf("FetchModel (re-warm): %v", err)
	}
	if cachedFresh != fresh {
		t.Fatal("cache did not adopt the republished bundle")
	}

	// A client with no cache always gets the bundle in full.
	cold, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient (cold): %v", err)
	}
	got, v, err := cold.FetchModel("user-00", 0)
	if err != nil {
		t.Fatalf("FetchModel (new client): %v", err)
	}
	if v != 2 || got == nil {
		t.Fatalf("new client fetch: version %d, bundle nil=%v", v, got == nil)
	}
}
