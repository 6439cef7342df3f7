package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"time"

	"smarteryou"
)

var benchKey = []byte("benchmark-pre-shared-key")

// trainParams is the paper's configuration: both devices, one model per
// detected context.
var trainParams = smarteryou.TrainParams{Mode: smarteryou.Mode{Combined: true, UseContext: true}, Seed: 1}

// storeOptions is how every cloud workload opens its stores: four WAL
// shards, the last five model versions kept, the default compaction
// cadence, and no fsync.
//
// No fsync, because the device under this host cannot carry a bound: the
// same fsynced 4 KiB append took 0.18 ms at the start of an hour of
// benchmark runs and 6 ms at its end (the root filesystem is mounted
// with discard, and sustained appends and deletes back its journal up),
// and with fsync on every record that moved ops_per_s on
// cloud-write-replicated from 8400 to 360 and setup_s from 0.5 s to 10 s
// with no change to the program. So the workloads measure the whole
// write path up to the device (WAL encoding, the write calls,
// compaction, the chunk store, replication), and the device's share is
// measured beside it by probes on a store that does fsync:
// store.enroll_us, store.fsync_wait_us, env.fsync_probe_us. Add
// store.fsync_wait_us to enroll_p50_us for the latency of a durable
// enroll on the device of the day.
var storeOptions = smarteryou.StoreOptions{Shards: 4, KeepModelVersions: 5, NoSync: true}

// netCounters counts exactly what crosses the client side of every
// connection; the counting connection is injected through
// AuthClientConfig.Dial in traced and untraced runs alike.
type netCounters struct{ tx, rx, writes, reads, dials atomic.Int64 }

func (c *netCounters) snap() netSnap {
	return netSnap{c.tx.Load(), c.rx.Load(), c.writes.Load(), c.reads.Load(), c.dials.Load()}
}

type countingConn struct {
	net.Conn
	c *netCounters
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.rx.Add(int64(n))
	c.c.reads.Add(1)
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.tx.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}

func (c *netCounters) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	c.dials.Add(1)
	return countingConn{conn, c}, nil
}

// cloudEnv is an in-process Authentication Server over a durable store
// on plain host loopback (no netcond), optionally with a replication
// leader and one in-process follower store.
type cloudEnv struct {
	dir    string
	store  *smarteryou.PopulationStore
	server *smarteryou.AuthServer
	addr   string
	net    netCounters
	admin  *smarteryou.AuthClient

	leader        *smarteryou.ReplicationLeader
	replAddr      string
	followerStore *smarteryou.PopulationStore
	follower      *smarteryou.ReplicationFollower
}

func startCloud(dir string, c *cohort, replicated bool) (env *cloudEnv, err error) {
	env = &cloudEnv{dir: dir}
	defer func() {
		if err != nil {
			_ = env.close()
		}
	}()
	det, err := smarteryou.TrainContextDetector(smarteryou.ContextTrainingData(c.detectorTrain), smarteryou.DetectorConfig{Seed: 1})
	if err != nil {
		return env, err
	}
	if env.store, err = smarteryou.OpenStore(filepath.Join(dir, "leader"), storeOptions); err != nil {
		return env, err
	}
	cfg := smarteryou.AuthServerConfig{
		Key: benchKey, Detector: det, Store: env.store,
		// The drift monitor is on: every decision updates the user's
		// confidence EWMA and every 256th checkpoints the monitor into the
		// store. Its trigger sits below any score, so that no scheduled
		// retrain swaps a model under the measured region (scheduled
		// retrains are not measured; retrain.completed reports them).
		Retrain: &smarteryou.ServerRetrainConfig{Threshold: -1},
	}
	if replicated {
		if env.leader, err = smarteryou.NewReplicationLeader(smarteryou.ReplicationLeaderConfig{Store: env.store, Key: benchKey}); err != nil {
			return env, err
		}
		addr, err := env.leader.Serve("127.0.0.1:0")
		if err != nil {
			return env, err
		}
		env.replAddr = addr.String()
		if env.followerStore, err = smarteryou.OpenStore(filepath.Join(dir, "follower"), storeOptions); err != nil {
			return env, err
		}
		if env.follower, err = smarteryou.StartReplicationFollower(smarteryou.ReplicationFollowerConfig{
			Store: env.followerStore, Key: benchKey, LeaderAddr: env.replAddr,
		}); err != nil {
			return env, err
		}
	}
	if env.server, err = smarteryou.NewAuthServer(cfg); err != nil {
		return env, err
	}
	addr, err := env.server.Start("127.0.0.1:0")
	if err != nil {
		return env, err
	}
	env.addr = addr.String()
	if env.admin, err = env.client(); err != nil {
		return env, err
	}
	// Stage the cohort: everyone enrolls, then everyone trains against
	// everyone else's windows.
	for _, id := range c.ids {
		if _, err := env.admin.Enroll(id.ID, id.Enroll); err != nil {
			return env, fmt.Errorf("stage enroll %s: %w", id.ID, err)
		}
	}
	for _, id := range c.ids {
		if _, _, err := env.admin.TrainVersioned(id.ID, trainParams); err != nil {
			return env, fmt.Errorf("stage train %s: %w", id.ID, err)
		}
	}
	return env, nil
}

func (e *cloudEnv) client() (*smarteryou.AuthClient, error) {
	return smarteryou.NewAuthClient(smarteryou.AuthClientConfig{
		Addr: e.addr, Key: benchKey, Dial: e.net.dial,
		BusyRetries: -1, // a busy answer must reach the benchmark, not be retried away
	})
}

// settle waits until no drift-triggered retrain is queued or running, so
// models do not change under the measured region.
func (e *cloudEnv) settle() (smarteryou.AuthServerStats, error) {
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := e.admin.FullStats()
		if err != nil {
			return st, err
		}
		if st.Retrain == nil || (st.Retrain.Queued == 0 && st.Retrain.InFlight == 0) {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, errors.New("drift retrains never drained")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// converge waits until the follower's per-shard cursors equal the
// leader's and returns how long that took.
func (e *cloudEnv) converge() (time.Duration, error) {
	t0 := time.Now()
	deadline := t0.Add(20 * time.Second)
	for !reflect.DeepEqual(e.followerStore.ShardLastSeqs(), e.store.ShardLastSeqs()) {
		if time.Now().After(deadline) {
			return 0, errors.New("follower never converged")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return time.Since(t0), nil
}

// close stops what startCloud started, in dependency order, and waits.
func (e *cloudEnv) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if e.admin != nil {
		keep(e.admin.Close())
	}
	if e.server != nil {
		keep(e.server.Close())
	}
	if e.follower != nil {
		keep(e.follower.Close())
	}
	if e.leader != nil {
		keep(e.leader.Close())
	}
	if e.followerStore != nil {
		keep(e.followerStore.Close())
	}
	if e.store != nil {
		keep(e.store.Close())
	}
	*e = cloudEnv{dir: e.dir}
	return first
}

// captureConn records what the client writes, to hand the probes a real
// v2 request frame. Only the calling goroutine writes to it and reads it.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.buf.Write(p)
	return c.Conn.Write(p)
}

// captureAuthFrame sends one authenticate request over a recording
// connection and returns its bytes on the wire.
func (e *cloudEnv) captureAuthFrame(userID string, w smarteryou.WindowSample) ([]byte, error) {
	var cc *captureConn
	client, err := smarteryou.NewAuthClient(smarteryou.AuthClientConfig{
		Addr: e.addr, Key: benchKey,
		Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout(network, addr, timeout)
			if err != nil {
				return nil, err
			}
			cc = &captureConn{Conn: conn}
			return cc, nil
		},
	})
	if err != nil {
		return nil, err
	}
	defer client.Close()
	if _, err := client.Authenticate(userID, w); err != nil {
		return nil, err
	}
	return cc.buf.Bytes(), nil
}
