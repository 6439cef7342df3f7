package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sync"

	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
)

// All inputs come from the seed through the repository's own synthetic
// sensor model (internal/sensing) and feature pipeline. The program
// under test is handed the generated streams and windows only; it never
// sees the seed or a workload name.

const windowSeconds = 6

// identity is one enrolled user as the cloud workloads see it.
type identity struct {
	ID string
	// Enroll is what the user uploads at enrollment; Reenroll is the
	// later upload that replaces it (cloud-write-replicated only). Both
	// hold the stationary and the moving context in equal parts.
	Enroll, Reenroll []features.WindowSample
	// Genuine are windows of the same user from a later session; Mimic
	// are windows of another user imitating this one (Section V-G).
	Genuine, Mimic []features.WindowSample
}

// cohortSpec sizes a cohort in seconds of recording per context.
type cohortSpec struct {
	users                                int
	enrollS, reenrollS, genuineS, mimicS float64
}

type cohort struct {
	ids []identity
	// detectorTrain are windows of users outside the cohort, for the
	// user-agnostic context detector.
	detectorTrain []features.WindowSample
	digest        string
}

const detectorUsers = 8

func subSeed(seed int64, stream, i int) int64 {
	return seed*1000003 + int64(stream)*100003 + int64(i)*7
}

func parallelDo(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}

func collect(u *sensing.User, seconds float64, seed int64, mimicOf *sensing.UserParams) ([]features.WindowSample, error) {
	if seconds <= 0 {
		return nil, nil
	}
	return features.Collect(u, features.CollectOptions{
		WindowSeconds:  windowSeconds,
		SessionSeconds: seconds,
		Sessions:       1,
		Seed:           seed,
		MimicOf:        mimicOf,
		MimicFidelity:  0.8,
	})
}

// interleave reorders Collect's "all stationary, then all moving" output
// so that every prefix holds both contexts in equal parts.
func interleave(ws []features.WindowSample) []features.WindowSample {
	half := len(ws) / 2
	out := make([]features.WindowSample, 0, len(ws))
	for i := 0; i < half; i++ {
		out = append(out, ws[i], ws[half+i])
	}
	return out
}

func buildCohort(seed int64, spec cohortSpec) (*cohort, error) {
	pop, err := sensing.NewPopulation(spec.users+detectorUsers, seed)
	if err != nil {
		return nil, err
	}
	c := &cohort{ids: make([]identity, spec.users)}
	det := make([][]features.WindowSample, detectorUsers)
	err = parallelDo(spec.users+detectorUsers, func(i int) error {
		u := pop.Users[i]
		if i >= spec.users {
			ws, err := collect(u, 48, subSeed(seed, 0, i), nil)
			det[i-spec.users] = ws
			return err
		}
		id := identity{ID: u.ID}
		var err error
		if id.Enroll, err = collect(u, spec.enrollS, subSeed(seed, 1, i), nil); err != nil {
			return err
		}
		if id.Reenroll, err = collect(u, spec.reenrollS, subSeed(seed, 2, i), nil); err != nil {
			return err
		}
		if id.Genuine, err = collect(u, spec.genuineS, subSeed(seed, 3, i), nil); err != nil {
			return err
		}
		attacker := pop.Users[(i+1)%spec.users]
		if id.Mimic, err = collect(attacker, spec.mimicS, subSeed(seed, 4, i), &u.Params); err != nil {
			return err
		}
		id.Enroll, id.Reenroll = interleave(id.Enroll), interleave(id.Reenroll)
		id.Genuine, id.Mimic = interleave(id.Genuine), interleave(id.Mimic)
		c.ids[i] = id
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("generate cohort: %w", err)
	}
	for _, ws := range det {
		c.detectorTrain = append(c.detectorTrain, ws...)
	}
	d := newDigest()
	d.windows(c.detectorTrain)
	for _, id := range c.ids {
		d.windows(id.Enroll)
		d.windows(id.Reenroll)
		d.windows(id.Genuine)
		d.windows(id.Mimic)
	}
	c.digest = d.hex()
	return c, nil
}

// digest hashes generated inputs, and separately the decisions the
// program made on them, so two commits can be shown to have run the same
// inputs and reached the same decisions.
type digest struct {
	h   hash.Hash
	buf []byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) windows(ws []features.WindowSample) {
	for _, w := range ws {
		d.buf = features.AppendSampleBinary(d.buf[:0], w)
		d.h.Write(d.buf)
	}
}

func (d *digest) stream(s *sensing.Stream) {
	for i := range s.Samples {
		smp := &s.Samples[i]
		d.buf = d.buf[:0]
		for _, v := range [...]float64{smp.Acc.X, smp.Acc.Y, smp.Acc.Z, smp.Gyr.X, smp.Gyr.Y, smp.Gyr.Z} {
			d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
		}
		d.h.Write(d.buf)
	}
}

// decision folds one accept/context pair into the digest.
func (d *digest) decision(accepted bool, context string) {
	b := byte(0)
	if accepted {
		b = 1
	}
	d.h.Write([]byte{b})
	d.h.Write([]byte(context))
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }
