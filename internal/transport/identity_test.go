package transport

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"smarteryou/internal/core"
	"smarteryou/internal/features"
	"smarteryou/internal/wire"
)

// pseudonymOracle is the server's pseudonym computed the plain way.
func pseudonymOracle(userID string) string {
	sum := sha256.Sum256([]byte("smarteryou-anon:" + userID))
	return "anon-" + hex.EncodeToString(sum[:8])
}

// cachedBytes is what the cache's ids and pseudonyms add up to.
func cachedBytes(ic *identityCache) int {
	n := 0
	for id, e := range ic.m {
		n += len(id) + len(e.anon)
	}
	return n
}

// TestIdentityCacheMatchesAnonymize looks random ids up, in random order
// and with repeats, by bytes and by string: every answer is the id and
// its pseudonym, whatever the cache holds. The ids include the empty id,
// ids that are prefixes of others, ids longer than the 48 bytes anonymize
// hashes without a heap copy, and ids long enough to start the cache over.
func TestIdentityCacheMatchesAnonymize(t *testing.T) {
	rng := rand.New(rand.NewSource(20170626))
	ids := []string{""}
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(100))
		rng.Read(b)
		id := string(b)
		ids = append(ids, id)
		if len(id) > 1 {
			ids = append(ids, id[:rng.Intn(len(id))]) // a prefix of it
		}
	}
	ids = append(ids, strings.Repeat("x", wire.KeepBytes/3), strings.Repeat("y", wire.KeepBytes+1))
	var ic identityCache
	for i := 0; i < 5000; i++ {
		id := ids[rng.Intn(len(ids))]
		want := identity{userID: id, anon: pseudonymOracle(id)}
		var got identity
		if i%2 == 0 {
			b := []byte(id)
			got = ic.lookup(b)
			for k := range b {
				b[k] ^= 0xFF // the cache must not have kept the caller's bytes
			}
		} else {
			got = ic.of(id)
		}
		if got != want {
			t.Fatalf("lookup %d of a %d-byte id: got %q, want %q", i, len(id), got.anon, want.anon)
		}
		if anonymize(id) != want.anon {
			t.Fatalf("anonymize of a %d-byte id differs from the oracle", len(id))
		}
		if ic.bytes != cachedBytes(&ic) || ic.bytes > wire.KeepBytes {
			t.Fatalf("cache counts %d B, holds %d B, bound %d B", ic.bytes, cachedBytes(&ic), wire.KeepBytes)
		}
	}
}

// TestIdentityCacheBoundedOnOneConn has one connection enroll more
// distinct users than its identity cache holds, then enroll and
// authenticate early ones again: the cache stays within wire.KeepBytes
// throughout, and every stored count and decision is what a fresh
// connection gets.
func TestIdentityCacheBoundedOnOneConn(t *testing.T) {
	srv, _, addr, _, own := startStoreServer(t, ServerConfig{})
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()
	if _, err := client.Enroll("user-00", own); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if _, err := client.Train("user-00", TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: 3}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	want := make([]AuthDecision, 4)
	for i := range want {
		if want[i], err = client.Authenticate("user-00", own[i]); err != nil {
			t.Fatalf("Authenticate: %v", err)
		}
	}

	c := newWireConn(nil, testKey)
	call := func(msgType string, payload any) reply {
		t.Helper()
		env, err := Seal(testKey, msgType, payload)
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		r := srv.dispatch(c, env)
		if r.msgType != TypeOK {
			t.Fatalf("%s: answered %s %+v", msgType, r.msgType, r.payload)
		}
		return r
	}
	authenticate := func(i int) {
		t.Helper()
		d := AuthDecision(*call(TypeAuthenticate, authRequest{UserID: "user-00", Sample: own[i]}).payload.(*authResponse))
		if d != want[i] {
			t.Errorf("window %d: decision %+v on the connection, %+v on a fresh one", i, d, want[i])
		}
	}
	enroll := func(id string, wantStored int) {
		t.Helper()
		w := own[0]
		w.UserID = id
		r := call(TypeEnroll, enrollRequest{UserID: id, Samples: []features.WindowSample{w}})
		if got := r.payload.(*enrollResponse).Stored; got != wantStored {
			t.Errorf("enroll of user %.12s…: stored %d, want %d", id, got, wantStored)
		}
		if c.ids.bytes > wire.KeepBytes || c.ids.bytes != cachedBytes(&c.ids) {
			t.Fatalf("identity cache counts %d B, holds %d B, bound %d B", c.ids.bytes, cachedBytes(&c.ids), wire.KeepBytes)
		}
	}

	authenticate(0)
	const idBytes = 1000 // about 64 ids fill the cache
	ids := make([]string, 3*wire.KeepBytes/idBytes)
	for i := range ids {
		ids[i] = fmt.Sprintf("%0*d", idBytes, i)
		enroll(ids[i], 1)
	}
	authenticate(1)
	for _, id := range ids[:8] {
		enroll(id, 2)
	}
	authenticate(2)
	authenticate(3)
}

// TestSecondRequestSharesCachedIdentity checks that a connection's second
// request for a user allocates neither the user id nor the pseudonym: it
// decodes to the very strings the first one did, and the windows the
// store keeps carry the first request's pseudonym.
func TestSecondRequestSharesCachedIdentity(t *testing.T) {
	srv, st, _, _, own := startStoreServer(t, ServerConfig{})
	c := newWireConn(nil, testKey)
	seal := func(msgType string, payload any) Envelope {
		t.Helper()
		env, err := Seal(testKey, msgType, payload)
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		return env
	}

	var ids [2]*byte
	for i := range ids {
		if err := c.open(seal(TypeAuthenticate, authRequest{UserID: "alice", Sample: own[i]}), &c.authReq); err != nil {
			t.Fatalf("open: %v", err)
		}
		ids[i] = unsafe.StringData(c.authReq.UserID)
	}
	if ids[0] != ids[1] {
		t.Errorf("the second request's user id is a new string, not the first one's")
	}

	anon := anonymize("alice")
	var stored [2]*byte
	for i := range stored {
		r := srv.dispatch(c, seal(TypeEnroll, enrollRequest{UserID: "alice", Replace: true, Samples: own[:2]}))
		if r.msgType != TypeOK {
			t.Fatalf("enroll: answered %s %+v", r.msgType, r.payload)
		}
		w := st.UserWindows(anon)
		if len(w) != 2 || w[0].UserID != anon {
			t.Fatalf("stored %d windows, want 2 of user %q", len(w), anon)
		}
		stored[i] = unsafe.StringData(w[0].UserID)
	}
	if stored[0] != stored[1] {
		t.Errorf("the second enroll stored a new pseudonym string, not the first one's")
	}
}
