package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"smarteryou/internal/cas"
	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
	"smarteryou/internal/store"
	"smarteryou/internal/wire"
)

var testKey = []byte("test-pre-shared-key")

func TestSealOpenRoundTrip(t *testing.T) {
	type payload struct {
		A int    `json:"a"`
		B string `json:"b"`
	}
	env, err := Seal(testKey, "custom", payload{A: 7, B: "x"})
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	var got payload
	if err := env.Open(testKey, &got); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got.A != 7 || got.B != "x" {
		t.Errorf("payload = %+v", got)
	}
}

func TestOpenRejectsTamperedPayload(t *testing.T) {
	env, err := Seal(testKey, TypeEnroll, enrollRequest{UserID: "alice"})
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	env.Payload = []byte(`{"user_id":"mallory"}`)
	var req enrollRequest
	if err := env.Open(testKey, &req); !errors.Is(err, wire.ErrBadMAC) {
		t.Errorf("tampered payload err = %v, want ErrBadMAC", err)
	}
}

func TestOpenRejectsTamperedType(t *testing.T) {
	env, err := Seal(testKey, TypeStats, nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	env.Type = TypeTrain // replay a stats request as a train request
	if err := env.Open(testKey, nil); !errors.Is(err, wire.ErrBadMAC) {
		t.Errorf("type-swapped err = %v, want ErrBadMAC", err)
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	env, err := Seal(testKey, TypeStats, nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if err := env.Open([]byte("other-key"), nil); !errors.Is(err, wire.ErrBadMAC) {
		t.Errorf("wrong key err = %v, want ErrBadMAC", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	env, err := Seal(testKey, TypeOK, enrollResponse{Stored: 5})
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	var resp enrollResponse
	if err := got.Open(testKey, &resp); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if resp.Stored != 5 {
		t.Errorf("Stored = %d, want 5", resp.Stored)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Errorf("oversized frame err = %v, want ErrFrameTooLarge", err)
	}
}

// buildFixture produces a detector + per-user data for server tests.
func buildFixture(t *testing.T) (*ctxdetect.Detector, map[string][]features.WindowSample) {
	t.Helper()
	pop, err := sensing.NewPopulation(5, 777)
	if err != nil {
		t.Fatalf("NewPopulation: %v", err)
	}
	byUser := make(map[string][]features.WindowSample)
	var ctxTrain []features.WindowSample
	for i, u := range pop.Users {
		samples, err := features.Collect(u, features.CollectOptions{
			WindowSeconds:  6,
			SessionSeconds: 60,
			Sessions:       1,
			Seed:           int64(10 + i),
		})
		if err != nil {
			t.Fatalf("Collect: %v", err)
		}
		byUser[u.ID] = samples
		ctxTrain = append(ctxTrain, samples...)
	}
	det, err := ctxdetect.Train(ctxdetect.FromSamples(ctxTrain), ctxdetect.Config{Seed: 1, Trees: 10})
	if err != nil {
		t.Fatalf("ctxdetect.Train: %v", err)
	}
	return det, byUser
}

// openTestStore opens an un-fsynced store in a fresh temp directory and
// closes it at cleanup. Cleanups run last-in first-out, so a server whose
// own cleanup (or defer) is registered afterwards closes before its store.
func openTestStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Errorf("Close store: %v", err)
		}
	})
	return st
}

func startServer(t *testing.T, det *ctxdetect.Detector) (*Server, string) {
	t.Helper()
	srv, err := NewServer(ServerConfig{Key: testKey, Detector: det, Store: openTestStore(t)})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return srv, addr.String()
}

func TestServerEndToEnd(t *testing.T) {
	det, byUser := buildFixture(t)
	srv, addr := startServer(t, det)

	// Preload the anonymized population with everyone but user-00.
	seed := make(map[string][]features.WindowSample)
	for id, samples := range byUser {
		if id != "user-00" {
			seed[id] = samples
		}
	}
	if err := srv.SeedPopulation(seed); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}

	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	// 1. Download the context detector.
	gotDet, err := client.FetchDetector()
	if err != nil {
		t.Fatalf("FetchDetector: %v", err)
	}
	if gotDet == nil {
		t.Fatalf("FetchDetector returned nil")
	}

	// 2. Enroll user-00.
	stored, err := client.Enroll("user-00", byUser["user-00"])
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if stored != len(byUser["user-00"]) {
		t.Errorf("stored %d windows, want %d", stored, len(byUser["user-00"]))
	}

	// 3. Train and download a model bundle.
	bundle, err := client.Train("user-00", TrainParams{
		Mode: core.Mode{Combined: true, UseContext: true},
		Seed: 3,
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}

	// 4. The downloaded models + detector must authenticate locally.
	auth, err := core.NewAuthenticator(gotDet, bundle)
	if err != nil {
		t.Fatalf("NewAuthenticator: %v", err)
	}
	ownAccepted := 0
	for _, s := range byUser["user-00"] {
		d, err := auth.Authenticate(s)
		if err != nil {
			t.Fatalf("Authenticate: %v", err)
		}
		if d.Accepted {
			ownAccepted++
		}
	}
	if frac := float64(ownAccepted) / float64(len(byUser["user-00"])); frac < 0.8 {
		t.Errorf("downloaded model accepts only %v of the owner's windows", frac)
	}

	// 5. Server stats reflect the population.
	users, windows, err := client.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if users != 5 {
		t.Errorf("stats users = %d, want 5", users)
	}
	if windows == 0 {
		t.Errorf("stats windows = 0")
	}
}

func TestServerAnonymizesPopulation(t *testing.T) {
	det, byUser := buildFixture(t)
	srv, _ := startServer(t, det)
	if err := srv.SeedPopulation(byUser); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}
	for anonID, samples := range srv.persist.Population() {
		if anonID == "user-00" || anonID == "user-01" {
			t.Errorf("store key %q leaks a real user id", anonID)
		}
		for _, s := range samples {
			if s.UserID != anonID {
				t.Errorf("stored sample carries id %q, want pseudonym %q", s.UserID, anonID)
			}
		}
	}
}

// TestSeedPopulationWritesOneLog pins "same corpus, same bytes" for
// seeding: two fresh stores seeded from one map hold the same records in
// the same per-shard order, whatever order the map iterates in.
func TestSeedPopulationWritesOneLog(t *testing.T) {
	det, byUser := buildFixture(t)
	corpus := make(map[string][]features.WindowSample, 32)
	for i := 0; i < 32; i++ {
		corpus[fmt.Sprintf("seed-user-%02d", i)] = byUser[fmt.Sprintf("user-%02d", i%len(byUser))][:2]
	}
	seedLog := func() [][]store.ReplRecord {
		st, err := store.Open(t.TempDir(), store.Options{Shards: 2, NoSync: true})
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		defer st.Close()
		srv, err := NewServer(ServerConfig{Key: testKey, Detector: det, Store: st})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		defer srv.Close()
		if err := srv.SeedPopulation(corpus); err != nil {
			t.Fatalf("SeedPopulation: %v", err)
		}
		logs := make([][]store.ReplRecord, 2)
		for shard := range logs {
			if logs[shard], err = st.ShardRecordsSince(shard, 0); err != nil {
				t.Fatalf("ShardRecordsSince(%d): %v", shard, err)
			}
		}
		return logs
	}
	a, b := seedLog(), seedLog()
	for shard := range a {
		if len(a[shard]) != len(b[shard]) {
			t.Fatalf("shard %d: %d vs %d records", shard, len(a[shard]), len(b[shard]))
		}
		for i := range a[shard] {
			if !bytes.Equal(a[shard][i].Payload, b[shard][i].Payload) {
				t.Fatalf("shard %d record %d differs between two seedings of one corpus", shard, i+1)
			}
		}
	}
}

func TestServerTrainWithoutEnrollment(t *testing.T) {
	det, byUser := buildFixture(t)
	srv, addr := startServer(t, det)
	if err := srv.SeedPopulation(map[string][]features.WindowSample{"user-01": byUser["user-01"]}); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	var remote *RemoteError
	if _, err := client.Train("ghost", TrainParams{}); !errors.As(err, &remote) {
		t.Errorf("training an unenrolled user: err = %v, want RemoteError", err)
	}
}

func TestServerRejectsWrongKeyClient(t *testing.T) {
	det, _ := buildFixture(t)
	_, addr := startServer(t, det)
	client, err := NewClient(ClientConfig{Addr: addr, Key: []byte("wrong")})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	_, _, err = client.Stats()
	if err == nil {
		t.Fatalf("wrong-key client should fail")
	}
	// The server answers with an error envelope sealed under ITS key, so
	// the client sees either a MAC failure or a remote error — both fail.
}

func TestReplaceEnrollment(t *testing.T) {
	det, byUser := buildFixture(t)
	_, addr := startServer(t, det)
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, err := client.Enroll("user-00", byUser["user-00"]); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	stored, err := client.ReplaceEnrollment("user-00", byUser["user-00"][:3])
	if err != nil {
		t.Fatalf("ReplaceEnrollment: %v", err)
	}
	if stored != 3 {
		t.Errorf("after replace, stored = %d, want 3", stored)
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{Key: testKey}); err == nil {
		t.Errorf("missing addr should error")
	}
	if _, err := NewClient(ClientConfig{Addr: "x"}); err == nil {
		t.Errorf("missing key should error")
	}
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Errorf("missing server key should error")
	}
	if _, err := NewServer(ServerConfig{Key: testKey}); err == nil {
		t.Errorf("missing detector should error")
	}
	if _, err := NewServer(ServerConfig{Key: testKey, Detector: &ctxdetect.Detector{}}); err == nil || !strings.Contains(err.Error(), "Store") {
		t.Errorf("missing store: err = %v, want an error naming Store", err)
	}
}

// startPersistentServer opens a store in dir and starts a server on it.
func startPersistentServer(t *testing.T, det *ctxdetect.Detector, dir string) (*Server, *store.Store, string) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	srv, err := NewServer(ServerConfig{Key: testKey, Detector: det, Store: st})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return srv, st, addr.String()
}

func TestStatsReportPersistenceState(t *testing.T) {
	det, byUser := buildFixture(t)

	// Stats reflect the population, the WAL and the model registry.
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
	if _, version, err := client.TrainVersioned("user-00", TrainParams{Seed: 1}); err != nil {
		t.Fatalf("TrainVersioned: %v", err)
	} else if version != 1 {
		t.Errorf("first trained model has version %d, want 1", version)
	}
	stats, err := client.FullStats()
	if err != nil {
		t.Fatalf("FullStats: %v", err)
	}
	if stats.Users != 2 || stats.Windows == 0 {
		t.Errorf("stats population = %d users / %d windows, want 2 users", stats.Users, stats.Windows)
	}
	pop, popWindows := st.Population(), 0
	for _, samples := range pop {
		popWindows += len(samples)
	}
	if stats.Users != len(pop) || stats.Windows != popWindows {
		t.Errorf("stats population = %d users / %d windows, store holds %d / %d",
			stats.Users, stats.Windows, len(pop), popWindows)
	}
	if stats.WALBytes == 0 {
		t.Errorf("stats report an empty WAL after two enrollments")
	}
	if len(stats.ModelVersions) != 1 {
		t.Errorf("ModelVersions = %v, want one entry", stats.ModelVersions)
	}
	for anon, v := range stats.ModelVersions {
		if v != 1 {
			t.Errorf("model version = %d, want 1", v)
		}
		if anon == "user-00" {
			t.Errorf("stats leak a real user id: %q", anon)
		}
	}
}

// TestServerPersistenceAcrossRestart is the headline recovery flow: a
// server with a data directory is stopped and a fresh one reopens the same
// directory — enrollment survives, training works without re-enrollment,
// and the published model is downloadable by version.
func TestServerPersistenceAcrossRestart(t *testing.T) {
	det, byUser := buildFixture(t)
	dir := t.TempDir()

	// First server lifetime: enroll two users, then shut down.
	srv1, st1, addr1 := startPersistentServer(t, det, dir)
	client, err := NewClient(ClientConfig{Addr: addr1, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	for _, id := range []string{"user-00", "user-01"} {
		if _, err := client.Enroll(id, byUser[id]); err != nil {
			t.Fatalf("Enroll %s: %v", id, err)
		}
	}
	if err := srv1.Close(); err != nil {
		t.Fatalf("Close server 1: %v", err)
	}
	if err := st1.Close(); err != nil {
		t.Fatalf("Close store 1: %v", err)
	}

	// Second lifetime: no re-enrollment, straight to training.
	srv2, st2, addr2 := startPersistentServer(t, det, dir)
	defer func() {
		if err := srv2.Close(); err != nil {
			t.Errorf("Close server 2: %v", err)
		}
		if err := st2.Close(); err != nil {
			t.Errorf("Close store 2: %v", err)
		}
	}()
	client2, err := NewClient(ClientConfig{Addr: addr2, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	users, windows, err := client2.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if users != 2 || windows == 0 {
		t.Fatalf("recovered %d users / %d windows, want both users back", users, windows)
	}
	bundle, version, err := client2.TrainVersioned("user-00", TrainParams{
		Mode: core.Mode{Combined: true}, Seed: 3,
	})
	if err != nil {
		t.Fatalf("Train after restart (no re-enrollment): %v", err)
	}
	if version != 1 {
		t.Errorf("post-restart model version = %d, want 1", version)
	}

	// The published model is fetchable from the registry, both as latest
	// and by its explicit version, and matches the trained bundle.
	fetched, gotVersion, err := client2.FetchModel("user-00", 0)
	if err != nil {
		t.Fatalf("FetchModel latest: %v", err)
	}
	if gotVersion != version {
		t.Errorf("latest version = %d, want %d", gotVersion, version)
	}
	want, _ := bundle.Marshal()
	got, _ := fetched.Marshal()
	if !bytes.Equal(want, got) {
		t.Errorf("fetched model differs from the trained one")
	}
	if _, _, err := client2.FetchModel("user-00", version); err != nil {
		t.Errorf("FetchModel by version: %v", err)
	}
	if _, _, err := client2.FetchModel("user-00", 99); err == nil {
		t.Errorf("fetching a never-published version should fail")
	}

	// The fetched model must actually authenticate the user.
	auth, err := core.NewAuthenticator(det, fetched)
	if err != nil {
		t.Fatalf("NewAuthenticator: %v", err)
	}
	accepted := 0
	for _, s := range byUser["user-00"] {
		d, err := auth.Authenticate(s)
		if err != nil {
			t.Fatalf("Authenticate: %v", err)
		}
		if d.Accepted {
			accepted++
		}
	}
	if frac := float64(accepted) / float64(len(byUser["user-00"])); frac < 0.8 {
		t.Errorf("recovered model accepts only %v of the owner's windows", frac)
	}
}

// damageFirstChunk flips a byte in the on-disk file of blob's first CAS
// chunk in the closed store at dir. Open checks that every referenced
// chunk file exists, not what is in it, so damaging the content makes the
// read, not the open, fail.
func damageFirstChunk(t *testing.T, dir string, blob []byte) {
	t.Helper()
	man, _ := cas.ManifestOf(blob)
	files, _ := filepath.Glob(filepath.Join(dir, "cas", man.Chunks[0].Hash.Hex()+"*"))
	if len(files) != 1 {
		t.Fatalf("chunk %s: found files %v, want one", man.Chunks[0].Hash.Hex(), files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatalf("read chunk: %v", err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatalf("damage chunk: %v", err)
	}
}

// TestAuthenticateReportsRegistryFailure: a registry that cannot produce
// the user's model is a server fault and must say so; only a user with no
// published model is told they have none.
func TestAuthenticateReportsRegistryFailure(t *testing.T) {
	det, byUser := buildFixture(t)
	dir := t.TempDir()
	srv1, st1, addr1 := startPersistentServer(t, det, dir)
	client, err := NewClient(ClientConfig{Addr: addr1, Key: testKey})
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
	if err := srv1.Close(); err != nil {
		t.Fatalf("Close server: %v", err)
	}
	// Flush the model's chunks to disk, then damage one of them.
	if err := st1.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	blob, _, _, err := st1.LatestModelBlob(anonymize("user-00"))
	if err != nil {
		t.Fatalf("LatestModelBlob: %v", err)
	}
	if err := st1.Close(); err != nil {
		t.Fatalf("Close store: %v", err)
	}
	damageFirstChunk(t, dir, blob)

	srv2, st2, addr2 := startPersistentServer(t, det, dir)
	defer func() {
		_ = srv2.Close()
		_ = st2.Close()
	}()
	client2, err := NewClient(ClientConfig{Addr: addr2, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	var remote *RemoteError
	_, err = client2.Authenticate("user-00", byUser["user-00"][0])
	if !errors.As(err, &remote) {
		t.Fatalf("authenticate over a damaged registry: err = %v, want RemoteError", err)
	}
	if strings.Contains(remote.Message, "no trained model") || !strings.Contains(remote.Message, "registry") {
		t.Errorf("damaged registry reported as %q, want a registry failure", remote.Message)
	}
	_, err = client2.Authenticate("user-01", byUser["user-01"][0])
	if !errors.As(err, &remote) || !strings.Contains(remote.Message, "user user-01 has no trained model") {
		t.Errorf("untrained user: err = %v, want the no-trained-model message", err)
	}
}

// TestFetchModelOnEveryServer: the default helper server has a model
// registry like any other — what Train returned is what FetchModel serves,
// as version 1.
func TestFetchModelOnEveryServer(t *testing.T) {
	det, byUser := buildFixture(t)
	_, addr := startServer(t, det)
	client, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	for _, id := range []string{"user-00", "user-01"} {
		if _, err := client.Enroll(id, byUser[id]); err != nil {
			t.Fatalf("Enroll %s: %v", id, err)
		}
	}
	trained, err := client.Train("user-00", TrainParams{Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	fetched, version, err := client.FetchModel("user-00", 0)
	if err != nil {
		t.Fatalf("FetchModel: %v", err)
	}
	if version != 1 {
		t.Errorf("fetched version %d, want 1", version)
	}
	if !reflect.DeepEqual(fetched, trained) {
		t.Errorf("fetched bundle differs from the one Train returned")
	}
}

func TestBluetoothLinkLossless(t *testing.T) {
	pop, _ := sensing.NewPopulation(1, 5)
	stream, err := sensing.Session{
		User: pop.Users[0], Context: sensing.ContextMovingUse, Seconds: 5, Seed: 2,
	}.Generate(sensing.DeviceWatch)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	out, err := BluetoothLink{DropRate: 0}.Transmit(stream)
	if err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	for i := range stream.Samples {
		if out.Samples[i] != stream.Samples[i] {
			t.Fatalf("lossless link altered sample %d", i)
		}
	}
}

func TestBluetoothLinkConcealsLoss(t *testing.T) {
	pop, _ := sensing.NewPopulation(1, 6)
	stream, err := sensing.Session{
		User: pop.Users[0], Context: sensing.ContextMovingUse, Seconds: 20, Seed: 3,
	}.Generate(sensing.DeviceWatch)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	out, err := BluetoothLink{DropRate: 0.3, Seed: 9}.Transmit(stream)
	if err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	if len(out.Samples) != len(stream.Samples) {
		t.Fatalf("length changed: %d -> %d", len(stream.Samples), len(out.Samples))
	}
	changed := 0
	for i := range stream.Samples {
		if out.Samples[i] != stream.Samples[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Errorf("30%% drop rate concealed nothing")
	}
	// Concealment must still allow feature extraction.
	wins, err := features.ExtractWindows(out, 6)
	if err != nil {
		t.Fatalf("ExtractWindows on lossy stream: %v", err)
	}
	if len(wins) == 0 {
		t.Errorf("no windows from lossy stream")
	}
}

func TestBluetoothLinkValidation(t *testing.T) {
	if _, err := (BluetoothLink{}).Transmit(nil); err == nil {
		t.Errorf("nil stream should error")
	}
	pop, _ := sensing.NewPopulation(1, 7)
	stream, _ := sensing.Session{
		User: pop.Users[0], Context: sensing.ContextStationaryUse, Seconds: 1, Seed: 1,
	}.Generate(sensing.DeviceWatch)
	if _, err := (BluetoothLink{DropRate: 1.5}).Transmit(stream); err == nil {
		t.Errorf("bad drop rate should error")
	}
}

// TestNonFiniteEnrollRefused: a window with a NaN or infinite feature is
// refused at admission — enroll, replace-enroll and SeedPopulation alike —
// and nothing of it is stored. Stored, it would reach every other user's
// impostor sample and make their trains fail on a singular matrix.
func TestNonFiniteEnrollRefused(t *testing.T) {
	det, byUser := buildFixture(t)
	srv, addr := startServer(t, det)
	seed := make(map[string][]features.WindowSample)
	for _, id := range []string{"user-02", "user-03", "user-04"} {
		seed[id] = byUser[id]
	}
	if err := srv.SeedPopulation(seed); err != nil {
		t.Fatalf("SeedPopulation: %v", err)
	}
	a, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, err := a.Enroll("user-00", byUser["user-00"]); err != nil {
		t.Fatalf("A's enroll: %v", err)
	}

	b, err := NewClient(ClientConfig{Addr: addr, Key: testKey})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	poisoned := func(k int, set func(w *features.WindowSample)) []features.WindowSample {
		ws := slices.Clone(byUser["user-01"])
		set(&ws[k])
		return ws
	}
	if _, err := b.Enroll("user-01", poisoned(3, func(w *features.WindowSample) { w.Phone.Acc.Mean = math.NaN() })); err == nil {
		t.Error("B's enroll with a NaN feature was acked")
	}
	if _, err := b.ReplaceEnrollment("user-01", poisoned(0, func(w *features.WindowSample) { w.Watch.Gyr.Peak2F = math.Inf(1) })); err == nil {
		t.Error("B's replace-enroll with a +Inf feature was acked")
	}
	if w := srv.persist.UserWindows(anonymize("user-01")); len(w) != 0 {
		t.Errorf("%d of B's windows stored", len(w))
	}
	bad := map[string][]features.WindowSample{
		"user-05": byUser["user-01"],
		"user-06": poisoned(1, func(w *features.WindowSample) { w.Phone.Gyr.Var = math.Inf(-1) }),
	}
	if err := srv.SeedPopulation(bad); err == nil {
		t.Error("SeedPopulation with a -Inf feature succeeded")
	}
	if w := srv.persist.UserWindows(anonymize("user-05")); len(w) != 0 {
		t.Errorf("a refused seeding stored %d windows of its finite user", len(w))
	}

	// A's train samples every other user's windows as impostors.
	if _, err := a.Train("user-00", TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, Seed: 3}); err != nil {
		t.Fatalf("A's train: %v", err)
	}
}
