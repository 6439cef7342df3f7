package transport

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"smarteryou/internal/cas"
	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/retrain"
	"smarteryou/internal/sensing"
)

// TestServedModelsAreDeterministic: every model the server publishes is a
// function of the store's contents and the seed — not of map iteration
// order, of the order users enrolled in, or of the clock.
func TestServedModelsAreDeterministic(t *testing.T) {
	owner, enroll, impostors, det := driftServerFixture(t)
	users := maps.Clone(impostors)
	users[owner.ID] = enroll
	var order []string
	for id := range users {
		order = append(order, id)
	}
	slices.Sort(order)
	reversed := slices.Clone(order)
	slices.Reverse(reversed)
	params := func(maxPerClass int) TrainParams {
		return TrainParams{Mode: core.Mode{Combined: true, UseContext: true}, MaxPerClass: maxPerClass, Seed: 2}
	}

	// serve starts a drift-enabled server and enrolls every user in order.
	serve := func(t *testing.T, order []string) *Server {
		srv, err := NewServer(ServerConfig{Key: testKey, Detector: det, Store: openTestStore(t), Retrain: &retrain.Config{
			Cooldown: time.Millisecond, Budget: 1, RecentWindows: 16, BusyBackoff: 10 * time.Millisecond,
		}})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		for _, id := range order {
			if err := srv.persist.Enroll(anonymize(id), users[id], false); err != nil {
				t.Fatalf("enroll %s: %v", id, err)
			}
		}
		return srv
	}
	// train runs one client train and returns the published model's hash.
	train := func(t *testing.T, srv *Server, p TrainParams) cas.Hash {
		res := srv.runTrainJob(trainJob{req: trainRequest{UserID: owner.ID, TrainParams: p}})
		if res.err != nil {
			t.Fatalf("train: %v", res.err)
		}
		_, hash, err := srv.persist.LatestModelHash(anonymize(owner.ID))
		if err != nil {
			t.Fatalf("LatestModelHash: %v", err)
		}
		return hash
	}
	// scheduled trains the owner, runs one scheduled retrain over it and
	// returns the retrained model's hash.
	scheduled := func(t *testing.T, srv *Server) cas.Hash {
		train(t, srv, params(0))
		anon := anonymize(owner.ID)
		if err := srv.runScheduledRetrain(retrain.Candidate{User: anon}); err != nil {
			t.Fatalf("scheduled retrain: %v", err)
		}
		version, hash, err := srv.persist.LatestModelHash(anon)
		if err != nil || version != 2 {
			t.Fatalf("LatestModelHash: version %d, err %v; want version 2", version, err)
		}
		return hash
	}

	cases := []struct {
		name string
		// run publishes two models that must be the same bytes and
		// returns their content hashes.
		run func(t *testing.T) (a, b cas.Hash)
	}{
		{"same train twice, every window", func(t *testing.T) (cas.Hash, cas.Hash) {
			srv := serve(t, order)
			return train(t, srv, params(0)), train(t, srv, params(0))
		}},
		{"same train twice, 40 per class", func(t *testing.T) (cas.Hash, cas.Hash) {
			srv := serve(t, order)
			return train(t, srv, params(40)), train(t, srv, params(40))
		}},
		{"enrolled in reverse order", func(t *testing.T) (cas.Hash, cas.Hash) {
			return train(t, serve(t, order), params(0)), train(t, serve(t, reversed), params(0))
		}},
		{"one scheduled retrain on two identical servers", func(t *testing.T) (cas.Hash, cas.Hash) {
			return scheduled(t, serve(t, order)), scheduled(t, serve(t, order))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if a, b := tc.run(t); a != b {
				t.Errorf("published %x, then %x", a[:8], b[:8])
			}
		})
	}
}

// TestImpostorsSampleEveryContextInSortedOrder: at a quota of one window
// per context per user, users whose windows are blocked by context (the
// way features.Collect emits them) still give both contexts, and the
// sample walks the users in sorted pseudonym order. With no budget the
// sample is the store's own slices, in the same order.
func TestImpostorsSampleEveryContextInSortedOrder(t *testing.T) {
	srv, err := NewServer(ServerConfig{Key: testKey, Detector: &ctxdetect.Detector{}, Store: openTestStore(t)})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	for _, user := range []string{"anon-c", "anon-self", "anon-a", "anon-b"} {
		var w []features.WindowSample
		for _, ctx := range []sensing.Context{sensing.ContextStationaryUse, sensing.ContextMovingUse} {
			for k := 0; k < 5; k++ {
				w = append(w, features.WindowSample{UserID: user, Context: ctx, Day: float64(k)})
			}
		}
		if err := srv.persist.Enroll(user, w, false); err != nil {
			t.Fatalf("enroll %s: %v", user, err)
		}
	}

	var got, want []string
	for _, w := range slices.Concat(srv.impostors("anon-self", 3)...) {
		got = append(got, fmt.Sprintf("%s/%s", w.UserID, w.Context.Coarse()))
	}
	others := []string{"anon-a", "anon-b", "anon-c"}
	for _, user := range others {
		want = append(want, user+"/stationary", user+"/moving")
	}
	if !slices.Equal(got, want) {
		t.Errorf("impostors at quota 1 = %v, want %v", got, want)
	}
	segs := srv.impostors("anon-self", 0)
	if len(segs) != len(others) {
		t.Fatalf("impostors with no budget = %d segments, want one per other user", len(segs))
	}
	for i, user := range others {
		stored := srv.persist.UserWindows(user)
		if len(segs[i]) != len(stored) || &segs[i][0] != &stored[0] {
			t.Errorf("segment %d is not %s's stored windows in place", i, user)
		}
	}
}
