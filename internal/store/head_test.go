package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"smarteryou/internal/cas"
)

// wantHead fails unless the store's head for id is (version, the hash of
// the blob LatestModelBlob returns).
func wantHead(t *testing.T, s *Store, id string, version int) {
	t.Helper()
	v, h, err := s.LatestModelHash(id)
	if err != nil {
		t.Fatalf("LatestModelHash(%s): %v", id, err)
	}
	blob, _, bv, err := s.LatestModelBlob(id)
	if err != nil {
		t.Fatalf("LatestModelBlob(%s): %v", id, err)
	}
	if want := cas.HashOf(blob); v != version || bv != version || h != want {
		t.Fatalf("head of %s = v%d %x, want v%d %x (registry v%d)", id, v, h[:4], version, want[:4], bv)
	}
}

// TestLatestModelHashWhileShardLocked: the head answers while a writer
// holds the shard lock, as a publish does across its WAL write.
func TestLatestModelHashWhileShardLocked(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{NoSync: true})
	defer func() { _ = s.Close() }()
	if _, err := s.PublishModel("anon-u", trainBundle(t)); err != nil {
		t.Fatalf("PublishModel: %v", err)
	}
	sh := s.shardFor("anon-u")
	sh.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, _, err := s.LatestModelHash("anon-u")
		done <- err
	}()
	select {
	case err := <-done:
		sh.mu.Unlock()
		if err != nil {
			t.Fatalf("LatestModelHash: %v", err)
		}
	case <-time.After(5 * time.Second):
		sh.mu.Unlock()
		<-done
		t.Fatalf("LatestModelHash waited for the shard lock")
	}
	wantHead(t, s, "anon-u", 1)
}

// TestLatestModelHashErrorsAndRecovery: a key with no model answers
// ErrNoModel, a closed store ErrClosed; the head follows every publish,
// keeps the latest of a trimmed history, and is rebuilt at open from the
// WAL and from a snapshot.
func TestLatestModelHashErrorsAndRecovery(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Shards: 2, NoSync: true, SnapshotEvery: -1, KeepModelVersions: 2}
	s := openStore(t, dir, opt)
	if _, _, err := s.LatestModelHash("anon-ghost"); !errors.Is(err, ErrNoModel) {
		t.Fatalf("LatestModelHash(unpublished) err = %v, want ErrNoModel", err)
	}
	for v := 1; v <= 3; v++ {
		if _, err := s.PublishModelBlob("anon-a", []byte(fmt.Sprintf(`{"v":%d}`, v))); err != nil {
			t.Fatalf("PublishModelBlob: %v", err)
		}
		wantHead(t, s, "anon-a", v)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := s.LatestModelHash("anon-a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("LatestModelHash after Close err = %v, want ErrClosed", err)
	}

	s = openStore(t, dir, opt) // from the WAL
	wantHead(t, s, "anon-a", 3)
	if _, err := s.PublishModelBlob("anon-a", []byte(`{"v":4}`)); err != nil {
		t.Fatalf("PublishModelBlob: %v", err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s = openStore(t, dir, opt) // from the snapshot
	defer func() { _ = s.Close() }()
	wantHead(t, s, "anon-a", 4)
	if _, _, err := s.LatestModelHash("anon-ghost"); !errors.Is(err, ErrNoModel) {
		t.Fatalf("LatestModelHash(unpublished) after reopen err = %v, want ErrNoModel", err)
	}
}

// TestFollowerHeadFollowsInstallsAndReplicatedPublishes: a follower's
// head is the leader's after a full-snapshot install, after a delta
// install and after a replicated publish, and an install that drops a
// key drops its head.
func TestFollowerHeadFollowsInstallsAndReplicatedPublishes(t *testing.T) {
	leader := openStore(t, t.TempDir(), Options{SnapshotEvery: -1, NoSync: true})
	defer func() { _ = leader.Close() }()
	if err := leader.Enroll("anon-a", fakeSamples("anon-a", 3, 0), false); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if _, err := leader.PublishModelBlob("anon-a", []byte(`{"v":1}`)); err != nil {
		t.Fatalf("PublishModelBlob: %v", err)
	}
	snap, _, err := leader.ShardSnapshotBytes(0)
	if err != nil {
		t.Fatalf("ShardSnapshotBytes: %v", err)
	}
	body, _, chunks, err := leader.ShardDelta(0)
	if err != nil {
		t.Fatalf("ShardDelta: %v", err)
	}

	for _, install := range []struct {
		name string
		run  func(f *Store) error
	}{
		{"snapshot", func(f *Store) error { _, err := f.InstallShardSnapshot(0, snap); return err }},
		{"delta", func(f *Store) error { _, err := f.InstallShardDelta(0, body, chunks); return err }},
	} {
		t.Run(install.name, func(t *testing.T) {
			follower := openStore(t, t.TempDir(), Options{SnapshotEvery: -1, NoSync: true})
			defer func() { _ = follower.Close() }()
			// A model the follower holds and the leader does not goes with
			// the install.
			if _, err := follower.PublishModelBlob("anon-stale", []byte(`{"stale":1}`)); err != nil {
				t.Fatalf("PublishModelBlob: %v", err)
			}
			if err := install.run(follower); err != nil {
				t.Fatalf("install: %v", err)
			}
			wantHead(t, follower, "anon-a", 1)
			if _, _, err := follower.LatestModelHash("anon-stale"); !errors.Is(err, ErrNoModel) {
				t.Fatalf("head of a key the install dropped: err = %v, want ErrNoModel", err)
			}

			if _, err := leader.PublishModelBlob("anon-a", []byte(fmt.Sprintf(`{"v":2,"%s":1}`, install.name))); err != nil {
				t.Fatalf("PublishModelBlob: %v", err)
			}
			pipeAll(t, leader, follower)
			lv, lh, _ := leader.LatestModelHash("anon-a")
			wantHead(t, follower, "anon-a", lv)
			if _, fh, _ := follower.LatestModelHash("anon-a"); fh != lh {
				t.Fatalf("follower head %x, leader head %x", fh[:4], lh[:4])
			}
		})
	}
}

// TestModelHeadHammer: publishes on one shard race lock-free head reads,
// with compaction and keep-last-K trimming running. A reader never sees a
// version go backwards, nor a hash that is not its version's blob.
func TestModelHeadHammer(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{NoSync: true, SnapshotEvery: 16, KeepModelVersions: 2})
	defer func() { _ = s.Close() }()
	users := []string{"anon-0", "anon-1", "anon-2"}
	const publishes = 150
	blob := func(user string, v int) []byte { return []byte(fmt.Sprintf(`{"user":%q,"v":%d}`, user, v)) }

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)
	for _, user := range users {
		writers.Add(1)
		go func(user string) {
			defer writers.Done()
			for v := 1; v <= publishes; v++ {
				if got, err := s.PublishModelBlob(user, blob(user, v)); err != nil || got != v {
					errs <- fmt.Errorf("publish %s v%d: got v%d, %v", user, v, got, err)
					return
				}
			}
		}(user)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := make(map[string]int)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, user := range users {
					v, h, err := s.LatestModelHash(user)
					if errors.Is(err, ErrNoModel) {
						if last[user] > 0 {
							errs <- fmt.Errorf("%s: ErrNoModel after v%d", user, last[user])
							return
						}
						continue
					}
					if err != nil {
						errs <- fmt.Errorf("%s: %v", user, err)
						return
					}
					if v < last[user] {
						errs <- fmt.Errorf("%s: version went back from %d to %d", user, last[user], v)
						return
					}
					if h != cas.HashOf(blob(user, v)) {
						errs <- fmt.Errorf("%s: v%d read with another version's hash", user, v)
						return
					}
					last[user] = v
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, user := range users {
		wantHead(t, s, user, publishes)
	}
}
