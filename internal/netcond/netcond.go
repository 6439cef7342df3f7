// Package netcond conditions TCP flows with configurable network
// pathologies — propagation delay (fixed, jittered, or
// distribution-sampled), packet loss, reordering, and bandwidth caps — so
// that a loopback transport behaves like the real device–cloud channels
// of the paper's architecture: a flaky Bluetooth watch link, a phone on a
// congested WAN, a follower replica on another continent.
//
// The protocol runs over TCP, so loss and reordering never corrupt the
// byte stream; they surface the way TCP surfaces them to an application —
// as latency. A lost segment costs a retransmission timeout, a reordered
// segment stalls delivery behind the gap it left, and a capped link paces
// bytes at the configured rate. Each wrapped connection ("flow") draws its
// randomness from its own seeded generator, so a run replays identically
// for a given root seed.
package netcond

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Config declares one direction-symmetric set of link conditions. The
// zero value means "perfect link" and wrapping with it is a pass-through.
// Config is JSON-friendly.
type Config struct {
	// DelayMs is the one-way propagation delay in milliseconds applied to
	// the request path, and again to the first byte of the response — so a
	// round trip pays 2×DelayMs, like a real RTT.
	DelayMs float64 `json:"delay_ms,omitempty"`
	// JitterMs spreads the delay: uniform ±JitterMs for the "uniform"
	// distribution, the log-normal sigma scale for "lognormal".
	JitterMs float64 `json:"jitter_ms,omitempty"`
	// Distribution selects the delay model: "fixed" (default when
	// JitterMs is 0), "uniform" (default otherwise), or "lognormal"
	// (heavy-tailed — the shape of real cellular and Bluetooth latency).
	Distribution string `json:"distribution,omitempty"`
	// Loss is the per-segment loss probability in [0,1). A lost segment
	// is retransmitted and costs RTOMs of extra delay.
	Loss float64 `json:"loss,omitempty"`
	// RTOMs is the retransmission penalty per lost segment (default
	// max(4×DelayMs, 20ms) — a coarse TCP RTO).
	RTOMs float64 `json:"rto_ms,omitempty"`
	// Reorder is the per-segment reordering probability in [0,1). A
	// reordered segment is delivered late by ReorderGapMs.
	Reorder float64 `json:"reorder,omitempty"`
	// ReorderGapMs is the head-of-line stall a reordered segment pays
	// (default max(DelayMs, 5ms)).
	ReorderGapMs float64 `json:"reorder_gap_ms,omitempty"`
	// BandwidthKbps caps the link rate in kilobits per second; 0 means
	// unlimited. Bytes are paced: a burst larger than the link can carry
	// queues behind itself.
	BandwidthKbps float64 `json:"bandwidth_kbps,omitempty"`
	// MTU is the segment size used for loss/reorder granularity and
	// pacing (default 1500 bytes).
	MTU int `json:"mtu,omitempty"`
}

// IsZero reports whether the config describes a perfect link.
func (c Config) IsZero() bool {
	return c.DelayMs == 0 && c.JitterMs == 0 && c.Loss == 0 &&
		c.Reorder == 0 && c.BandwidthKbps == 0
}

// Validate rejects configurations that cannot describe a link.
func (c Config) Validate() error {
	if c.DelayMs < 0 || c.JitterMs < 0 || c.RTOMs < 0 || c.ReorderGapMs < 0 {
		return fmt.Errorf("netcond: negative delay parameter")
	}
	if c.Loss < 0 || c.Loss >= 1 {
		return fmt.Errorf("netcond: loss %g outside [0,1)", c.Loss)
	}
	if c.Reorder < 0 || c.Reorder >= 1 {
		return fmt.Errorf("netcond: reorder %g outside [0,1)", c.Reorder)
	}
	if c.BandwidthKbps < 0 {
		return fmt.Errorf("netcond: negative bandwidth")
	}
	if c.MTU < 0 {
		return fmt.Errorf("netcond: negative mtu")
	}
	switch c.Distribution {
	case "", "fixed", "uniform", "lognormal":
	default:
		return fmt.Errorf("netcond: unknown delay distribution %q", c.Distribution)
	}
	return nil
}

// DelayModel samples one-way propagation delays for a flow.
type DelayModel interface {
	// Sample draws one delay using the flow's generator.
	Sample(rng *rand.Rand) time.Duration
}

// FixedDelay is a constant propagation delay.
type FixedDelay time.Duration

// Sample implements DelayModel.
func (d FixedDelay) Sample(*rand.Rand) time.Duration { return time.Duration(d) }

// UniformDelay is Base ± Jitter, uniformly distributed and floored at 0.
type UniformDelay struct {
	Base, Jitter time.Duration
}

// Sample implements DelayModel.
func (d UniformDelay) Sample(rng *rand.Rand) time.Duration {
	v := time.Duration(float64(d.Base) + (2*rng.Float64()-1)*float64(d.Jitter))
	if v < 0 {
		return 0
	}
	return v
}

// LogNormalDelay is a heavy-tailed delay with the given median; Sigma is
// the standard deviation of the underlying normal (0.5 gives a mild tail,
// 1.0 an aggressive one). Real cellular and Bluetooth RTTs are close to
// log-normal: most samples near the median, occasional multi-x spikes.
type LogNormalDelay struct {
	Median time.Duration
	Sigma  float64
}

// Sample implements DelayModel.
func (d LogNormalDelay) Sample(rng *rand.Rand) time.Duration {
	if d.Median <= 0 {
		return 0
	}
	return time.Duration(float64(d.Median) * math.Exp(d.Sigma*rng.NormFloat64()))
}

// delayModel builds the DelayModel a config describes.
func (c Config) delayModel() DelayModel {
	base := time.Duration(c.DelayMs * float64(time.Millisecond))
	jitter := time.Duration(c.JitterMs * float64(time.Millisecond))
	dist := c.Distribution
	if dist == "" {
		if jitter > 0 {
			dist = "uniform"
		} else {
			dist = "fixed"
		}
	}
	switch dist {
	case "uniform":
		return UniformDelay{Base: base, Jitter: jitter}
	case "lognormal":
		sigma := 0.5
		if c.DelayMs > 0 && c.JitterMs > 0 {
			// Interpret jitter as the desired spread relative to the
			// median; sigma ≈ jitter/median keeps the knobs intuitive.
			sigma = c.JitterMs / c.DelayMs
		}
		return LogNormalDelay{Median: base, Sigma: sigma}
	default:
		return FixedDelay(base)
	}
}

// rto returns the retransmission penalty.
func (c Config) rto() time.Duration {
	if c.RTOMs > 0 {
		return time.Duration(c.RTOMs * float64(time.Millisecond))
	}
	rto := time.Duration(4 * c.DelayMs * float64(time.Millisecond))
	if min := 20 * time.Millisecond; rto < min {
		rto = min
	}
	return rto
}

// reorderGap returns the head-of-line penalty for a reordered segment.
func (c Config) reorderGap() time.Duration {
	if c.ReorderGapMs > 0 {
		return time.Duration(c.ReorderGapMs * float64(time.Millisecond))
	}
	gap := time.Duration(c.DelayMs * float64(time.Millisecond))
	if min := 5 * time.Millisecond; gap < min {
		gap = min
	}
	return gap
}

// mtu returns the segment size.
func (c Config) mtu() int {
	if c.MTU > 0 {
		return c.MTU
	}
	return 1500
}

// conditioner turns a config into per-segment penalty decisions for one
// flow. It is the deterministic core the Conn wrapper sleeps on; tests
// drive it directly to check convergence without wall-clock sleeps.
type conditioner struct {
	cfg   Config
	delay DelayModel
	rto   time.Duration
	gap   time.Duration
	mtu   int
	rng   *rand.Rand

	// linkFreeAt is the virtual time the capped link finishes the bytes
	// already accepted, measured against time.Now at each call.
	linkFreeAt time.Time
}

// newConditioner builds a flow conditioner with its own generator.
func newConditioner(cfg Config, seed int64) *conditioner {
	return &conditioner{
		cfg:   cfg,
		delay: cfg.delayModel(),
		rto:   cfg.rto(),
		gap:   cfg.reorderGap(),
		mtu:   cfg.mtu(),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// segmentOutcome reports what happened to one segment.
type segmentOutcome struct {
	delay     time.Duration
	lost      bool
	reordered bool
}

// segment rolls one MTU-sized segment: propagation delay plus loss and
// reorder penalties. Loss can strike the retransmission too; the retry
// count is bounded so a pathological generator cannot stall forever.
func (c *conditioner) segment() segmentOutcome {
	out := segmentOutcome{delay: c.delay.Sample(c.rng)}
	if c.cfg.Loss > 0 {
		for tries := 0; tries < 8 && c.rng.Float64() < c.cfg.Loss; tries++ {
			out.lost = true
			out.delay += c.rto
		}
	}
	if c.cfg.Reorder > 0 && c.rng.Float64() < c.cfg.Reorder {
		out.reordered = true
		out.delay += c.gap
	}
	return out
}

// transfer computes how long moving n bytes takes: per-segment penalties
// for the first segment (TCP delivers the rest back-to-back once the
// window opens) plus bandwidth pacing for the full burst. now anchors the
// pacing clock.
func (c *conditioner) transfer(now time.Time, n int) time.Duration {
	d := c.segment().delay
	// Subsequent segments of the same burst share the pipe; each extra
	// segment can still independently be lost, which extends the burst.
	if n > c.mtu && c.cfg.Loss > 0 {
		for rem := n - c.mtu; rem > 0; rem -= c.mtu {
			if c.rng.Float64() < c.cfg.Loss {
				d += c.rto
			}
		}
	}
	if queued := c.pace(now, n); queued > d {
		d = queued
	}
	return d
}

// pace charges n bytes against the bandwidth cap and returns how long the
// caller must wait for the link to carry them (0 when uncapped).
func (c *conditioner) pace(now time.Time, n int) time.Duration {
	if c.cfg.BandwidthKbps <= 0 {
		return 0
	}
	serialize := time.Duration(float64(n) * 8 / (c.cfg.BandwidthKbps * 1000) * float64(time.Second))
	if c.linkFreeAt.Before(now) {
		c.linkFreeAt = now
	}
	c.linkFreeAt = c.linkFreeAt.Add(serialize)
	return c.linkFreeAt.Sub(now)
}
