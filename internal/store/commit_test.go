package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// setCommitHook installs commitTestHook for one test.
func setCommitHook(t *testing.T, hook func(step string) error) {
	t.Helper()
	commitTestHook = hook
	t.Cleanup(func() { commitTestHook = nil })
}

// waitAssigned polls until shard 0 of s has assigned sequence numbers up
// to seq: every write up to it has joined a batch.
func waitAssigned(t *testing.T, s *Store, seq uint64) {
	t.Helper()
	sh := s.shards[0]
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		sh.mu.Lock()
		next := sh.nextSeq
		sh.mu.Unlock()
		if next > seq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sequence %d never assigned (next %d)", seq, next)
		}
	}
}

// returned reports whether done has been closed.
func returned(done chan error) bool {
	select {
	case err := <-done:
		done <- err
		return true
	default:
		return false
	}
}

// TestNothingVisibleBeforeTheFsync pauses a committer between its WAL
// write and its fsync. The batch's bytes are in the log, but readers, the
// lock-free model head and the replication cursor do not see it, no
// writer of it has returned, and a write that arrives meanwhile waits in
// the next batch. Once the fsync lands, all of it is visible.
func TestNothingVisibleBeforeTheFsync(t *testing.T) {
	dir := t.TempDir()
	paused, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	setCommitHook(t, func(step string) error {
		if step == "sync" && armed.CompareAndSwap(true, false) {
			close(paused)
			<-release
		}
		return nil
	})
	s := openStore(t, dir, Options{SnapshotEvery: -1})
	defer func() { _ = s.Close() }()
	if err := s.Enroll("anon-a", fakeSamples("anon-a", 2, 0), false); err != nil {
		t.Fatalf("Enroll: %v", err)
	}

	armed.Store(true)
	walBefore := fileSize(t, filepath.Join(dir, "shard-0000", walFile))
	enrolled := make(chan error, 1)
	go func() { enrolled <- s.Enroll("anon-a", fakeSamples("anon-a", 3, 1), false) }()
	<-paused
	published := make(chan error, 1)
	go func() {
		_, err := s.PublishModelBlob("anon-a", []byte(`{"v":1}`))
		published <- err
	}()
	waitAssigned(t, s, 3)

	if got := fileSize(t, filepath.Join(dir, "shard-0000", walFile)); got <= walBefore {
		t.Fatalf("paused before its fsync, the batch is not in the log (%d bytes, was %d)", got, walBefore)
	}
	if n := len(s.UserWindows("anon-a")); n != 2 {
		t.Errorf("UserWindows sees %d windows before the fsync, want 2", n)
	}
	if _, _, err := s.LatestModelHash("anon-a"); !errors.Is(err, ErrNoModel) {
		t.Errorf("LatestModelHash before the publish committed: %v, want ErrNoModel", err)
	}
	if seqs := s.ShardLastSeqs(); seqs[0] != 1 {
		t.Errorf("ShardLastSeqs before the fsync = %v, want [1]", seqs)
	}
	if st := s.Stats(); st.LastSeq != 1 || st.Windows != 2 {
		t.Errorf("Stats before the fsync: LastSeq %d, %d windows; want 1, 2", st.LastSeq, st.Windows)
	}
	if recs, err := s.ShardRecordsSince(0, 0); err != nil || len(recs) != 1 {
		t.Errorf("ShardRecordsSince before the fsync: %d records, %v; want the 1 durable one", len(recs), err)
	}
	if returned(enrolled) || returned(published) {
		t.Fatal("a writer returned before its batch's fsync")
	}

	close(release)
	if err := <-enrolled; err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if err := <-published; err != nil {
		t.Fatalf("PublishModelBlob: %v", err)
	}
	if n := len(s.UserWindows("anon-a")); n != 5 {
		t.Errorf("UserWindows after the commit: %d windows, want 5", n)
	}
	wantHead(t, s, "anon-a", 1)
	if seqs := s.ShardLastSeqs(); seqs[0] != 3 {
		t.Errorf("ShardLastSeqs after the commit = %v, want [3]", seqs)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestGroupCommitSharesFsyncs: 8 writers on one shard, fsync on, share
// their fsyncs. The hook stands in for a slow disk, so writers queue
// behind each fsync whatever the test machine's disk.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	var syncs atomic.Int64
	setCommitHook(t, func(step string) error {
		if step == "sync" {
			syncs.Add(1)
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	s := openStore(t, t.TempDir(), Options{SnapshotEvery: -1})
	defer func() { _ = s.Close() }()
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("anon-%d", w)
			for i := 0; i < each; i++ {
				if err := s.Enroll(user, fakeSamples(user, 1, float64(i)), false); err != nil {
					t.Errorf("Enroll: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	records := int64(writers * each)
	if st := s.Stats(); st.LastSeq != uint64(records) || st.Windows != int(records) {
		t.Fatalf("Stats: LastSeq %d, %d windows; want %d of each", st.LastSeq, st.Windows, records)
	}
	if n := syncs.Load(); n > records/2 {
		t.Errorf("%d fsyncs for %d records: writers did not share them", n, records)
	}
}

// TestFailedFsyncFailsTheBatchAndTheQueue: a batch whose fsync fails
// fails its writers and every writer queued behind it. The log is cut
// back to the batch start and the sequence rewound, so the next write
// takes the failed batch's first sequence number, and a reopen finds only
// what was acknowledged.
func TestFailedFsyncFailsTheBatchAndTheQueue(t *testing.T) {
	dir := t.TempDir()
	injected := errors.New("injected fsync failure")
	paused, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	setCommitHook(t, func(step string) error {
		if step == "sync" && armed.CompareAndSwap(true, false) {
			close(paused)
			<-release
			return injected
		}
		return nil
	})
	s := openStore(t, dir, Options{SnapshotEvery: -1})
	if err := s.Enroll("anon-ok", fakeSamples("anon-ok", 2, 0), false); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	walBefore := fileSize(t, filepath.Join(dir, "shard-0000", walFile))

	armed.Store(true)
	errs := make(chan error, 3)
	go func() { errs <- s.Enroll("anon-x", fakeSamples("anon-x", 2, 1), false) }()
	<-paused
	go func() { errs <- s.Enroll("anon-y", fakeSamples("anon-y", 2, 2), true) }()
	go func() {
		_, err := s.PublishModelBlob("anon-x", []byte(`{"v":1}`))
		errs <- err
	}()
	waitAssigned(t, s, 4)
	close(release)
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, injected) {
			t.Errorf("writer %d: %v, want the injected error", i, err)
		}
	}
	if got := fileSize(t, filepath.Join(dir, "shard-0000", walFile)); got != walBefore {
		t.Errorf("log is %d bytes after the failed batch, want %d", got, walBefore)
	}
	if seqs := s.ShardLastSeqs(); seqs[0] != 1 {
		t.Errorf("ShardLastSeqs = %v, want [1]", seqs)
	}
	for _, user := range []string{"anon-x", "anon-y"} {
		if n := len(s.UserWindows(user)); n != 0 {
			t.Errorf("%s holds %d windows from a failed batch", user, n)
		}
	}
	if _, _, err := s.LatestModelHash("anon-x"); !errors.Is(err, ErrNoModel) {
		t.Errorf("LatestModelHash after a failed publish: %v", err)
	}

	if err := s.Enroll("anon-z", fakeSamples("anon-z", 1, 3), false); err != nil {
		t.Fatalf("Enroll after the failure: %v", err)
	}
	if v, err := s.PublishModelBlob("anon-x", []byte(`{"v":1}`)); err != nil || v != 1 {
		t.Fatalf("PublishModelBlob after the failure: v%d, %v; want v1", v, err)
	}
	recs, err := s.ShardRecordsSince(0, 0)
	if err != nil || len(recs) != 3 {
		t.Fatalf("ShardRecordsSince: %d records, %v; want 3", len(recs), err)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d has sequence %d", i, r.Seq)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re := openStore(t, dir, Options{SnapshotEvery: -1})
	defer func() { _ = re.Close() }()
	if st := re.Stats(); st.LastSeq != 3 || st.Users != 2 || st.Windows != 3 || st.Recovery.TruncatedBytes != 0 {
		t.Errorf("reopened: %+v; want LastSeq 3, 2 users, 3 windows, nothing truncated", st)
	}
}

// TestCommitterHammer races, on one shard, local enrolls, replaces and
// publishes; a follower applying every replicated record into a second
// store; seals and unseals; explicit snapshots with background compaction;
// and a Close while writers still write. Every acknowledged write survives
// a reopen, and the follower ends holding exactly the leader's state.
func TestCommitterHammer(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{NoSync: true, SnapshotEvery: 16, KeepModelVersions: 2})
	follower := openStore(t, t.TempDir(), Options{NoSync: true, SnapshotEvery: 16, KeepModelVersions: 2})
	defer func() { _ = follower.Close() }()

	// The sink must not block: records queue here for the applier.
	var qmu sync.Mutex
	var queue []ReplRecord
	wake := make(chan struct{}, 1)
	cancel := s.SubscribeReplication(func(_ int, seq uint64, payload []byte) {
		qmu.Lock()
		queue = append(queue, ReplRecord{Seq: seq, Payload: payload})
		qmu.Unlock()
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	defer cancel()
	applierDone, stopApplier := make(chan error, 1), make(chan struct{})
	go func() {
		next := uint64(1)
		for {
			qmu.Lock()
			batch := queue
			queue = nil
			qmu.Unlock()
			for _, r := range batch {
				if r.Seq != next {
					applierDone <- fmt.Errorf("sink delivered %d, want %d", r.Seq, next)
					return
				}
				if _, applied, err := follower.ApplyReplicated(0, r.Payload); err != nil || !applied {
					applierDone <- fmt.Errorf("ApplyReplicated %d: applied %v, %v", r.Seq, applied, err)
					return
				}
				next++
			}
			if len(batch) > 0 {
				continue
			}
			select {
			case <-wake:
			case <-stopApplier:
				applierDone <- nil
				return
			}
		}
	}()

	// acked[user] is the window count the user's last acknowledged write
	// left it with; each writer owns its users, so its writes are ordered.
	var amu sync.Mutex
	acked := make(map[string]int)
	versions := make(map[string]int)
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	tolerable := func(err error) bool { return errors.Is(err, ErrSealed) || errors.Is(err, ErrClosed) }
	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			stored := make(map[string]int)
			for i := 0; !stopped(); i++ {
				user := fmt.Sprintf("anon-%d-%d", w, i%4)
				replace := i%3 == 2
				err := s.Enroll(user, fakeSamples(user, 2, float64(i)), replace)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil && !tolerable(err) {
					t.Errorf("Enroll: %v", err)
					return
				}
				if err == nil {
					if replace {
						stored[user] = 2
					} else {
						stored[user] += 2
					}
					amu.Lock()
					acked[user] = stored[user]
					amu.Unlock()
				}
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		last := 0
		for i := 0; !stopped(); i++ {
			v, err := s.PublishModelBlob("anon-p", []byte(fmt.Sprintf(`{"i":%d}`, i)))
			if errors.Is(err, ErrClosed) {
				return
			}
			if err != nil && !tolerable(err) {
				t.Errorf("PublishModelBlob: %v", err)
				return
			}
			if err == nil {
				if v != last+1 {
					t.Errorf("publish got v%d after v%d", v, last)
				}
				last = v
				amu.Lock()
				versions["anon-p"] = v
				amu.Unlock()
			}
		}
	}()
	writers.Add(1)
	go func() {
		defer writers.Done()
		for !stopped() {
			if _, err := s.SealShard(0); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("SealShard: %v", err)
			}
			time.Sleep(100 * time.Microsecond)
			s.UnsealShard(0)
			if err := s.Snapshot(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("Snapshot: %v", err)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	close(stop)
	writers.Wait()
	close(stopApplier)
	if err := <-applierDone; err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, Options{NoSync: true, SnapshotEvery: 16, KeepModelVersions: 2})
	defer func() { _ = re.Close() }()
	for user, n := range acked {
		if got := len(re.UserWindows(user)); got != n {
			t.Errorf("%s: %d windows after reopen, %d acknowledged", user, got, n)
		}
	}
	if v := versions["anon-p"]; v > 0 {
		wantHead(t, re, "anon-p", v)
		wantHead(t, follower, "anon-p", v)
	}
	if got, want := follower.ShardLastSeqs(), re.ShardLastSeqs(); got[0] != want[0] {
		t.Errorf("follower at %v, leader at %v", got, want)
	}
	lp, fp := re.PopulationView(), follower.PopulationView()
	if len(lp) != len(fp) {
		t.Errorf("follower holds %d users, leader %d", len(fp), len(lp))
	}
	for user, w := range lp {
		if len(fp[user]) != len(w) {
			t.Errorf("%s: follower holds %d windows, leader %d", user, len(fp[user]), len(w))
		}
	}
}

// TestPublishCountsVersionsStillInABatch: a publish takes the version
// after every publish of the same user still in a batch, the one being
// written and the one waiting behind it.
func TestPublishCountsVersionsStillInABatch(t *testing.T) {
	paused, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	setCommitHook(t, func(step string) error {
		if step == "sync" && armed.CompareAndSwap(true, false) {
			close(paused)
			<-release
		}
		return nil
	})
	s := openStore(t, t.TempDir(), Options{SnapshotEvery: -1})
	defer func() { _ = s.Close() }()
	versions := make(chan int, 3)
	publish := func(i int) {
		v, err := s.PublishModelBlob("anon-a", []byte(fmt.Sprintf(`{"i":%d}`, i)))
		if err != nil {
			t.Errorf("PublishModelBlob: %v", err)
		}
		versions <- v
	}
	go publish(1)
	<-paused
	go publish(2)
	waitAssigned(t, s, 2)
	go publish(3)
	waitAssigned(t, s, 3)
	close(release)
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		seen[<-versions] = true
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("publishes got versions %v, want 1, 2 and 3", seen)
	}
	wantHead(t, s, "anon-a", 3)
}
