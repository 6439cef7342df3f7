// Package experiments regenerates every table and figure in the
// SmarterYou paper's evaluation (Section V). Each experiment has a typed
// Run function returning structured results plus a text rendering in the
// paper's format, and the registry in registry.go exposes them by the
// paper's artifact ids ("table7", "figure4", ...).
//
// The synthetic population and recording campaign stand in for the
// paper's 35 participants; see DESIGN.md for the substitution argument.
// All experiments are deterministic in Config.Seed.
package experiments

import (
	"fmt"
	"sync"

	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
)

// Config scales the experiment campaign. The zero value is completed by
// withDefaults to the paper-scale campaign; QuickConfig returns a reduced
// campaign for tests.
type Config struct {
	// Users is the population size (paper: 35).
	Users int
	// Targets is how many users are evaluated as the legitimate owner
	// (results are averaged across them). The paper averages over all 35;
	// the default 5 keeps the harness fast while averaging enough to be
	// stable.
	Targets int
	// SessionsPerContext is the number of recording sessions per user per
	// context (default 4).
	SessionsPerContext int
	// SessionSeconds is the length of each session (default 300).
	SessionSeconds float64
	// Days is the free-form collection span the sessions are spread over
	// (paper: two weeks; default 13).
	Days float64
	// Folds is the cross-validation fold count (paper: 10).
	Folds int
	// Seed makes the whole campaign reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Users == 0 {
		c.Users = 35
	}
	if c.Targets == 0 {
		c.Targets = 5
	}
	if c.Targets > c.Users {
		c.Targets = c.Users
	}
	if c.SessionsPerContext == 0 {
		c.SessionsPerContext = 4
	}
	if c.SessionSeconds == 0 {
		c.SessionSeconds = 300
	}
	if c.Days == 0 {
		c.Days = 13
	}
	if c.Folds == 0 {
		c.Folds = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// QuickConfig returns a reduced campaign used by the test suite: small
// population, short sessions, few folds.
func QuickConfig() Config {
	return Config{
		Users:              8,
		Targets:            2,
		SessionsPerContext: 2,
		SessionSeconds:     120,
		Days:               10,
		Folds:              4,
		Seed:               1,
	}
}

// Data is the shared experiment substrate: the population plus caches of
// collected feature windows. Raw sensor streams are regenerated
// deterministically on demand (they are too large to keep), while
// extracted windows are cached per (user, window size).
type Data struct {
	Cfg Config
	Pop *sensing.Population

	mu         sync.Mutex
	winCache   map[winKey][]features.WindowSample
	detCache   map[float64]*ctxdetect.Detector
	table7Memo *Table7Result
}

// winKey names one user's windows of one campaign ("free-form",
// "deployment", "fig5") at one window size.
type winKey struct {
	campaign      string
	user          int
	windowSeconds float64
}

// NewData builds the campaign substrate.
func NewData(cfg Config) (*Data, error) {
	cfg = cfg.withDefaults()
	pop, err := sensing.NewPopulation(cfg.Users, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Data{
		Cfg:      cfg,
		Pop:      pop,
		winCache: make(map[winKey][]features.WindowSample),
		detCache: make(map[float64]*ctxdetect.Detector),
	}, nil
}

// collectOptions builds the deterministic per-user collection options of
// the free-form campaign.
func (d *Data) collectOptions(userIdx int, windowSeconds float64) features.CollectOptions {
	return features.CollectOptions{
		WindowSeconds:  windowSeconds,
		SessionSeconds: d.Cfg.SessionSeconds,
		Sessions:       d.Cfg.SessionsPerContext,
		Days:           d.Cfg.Days,
		Seed:           d.Cfg.Seed*1_000_003 + int64(userIdx)*7919,
	}
}

// UserWindows returns (and caches) the free-form feature windows of one
// user at the given window size.
func (d *Data) UserWindows(userIdx int, windowSeconds float64) ([]features.WindowSample, error) {
	return d.cachedWindows(winKey{"free-form", userIdx, windowSeconds}, func() ([]features.WindowSample, error) {
		return features.Collect(d.Pop.Users[userIdx], d.collectOptions(userIdx, windowSeconds))
	})
}

// cachedWindows returns one user's windows of one campaign, collecting
// them on first use. Two callers racing on a cold key both collect; the
// campaigns are deterministic, so either result is the same.
func (d *Data) cachedWindows(key winKey, collect func() ([]features.WindowSample, error)) ([]features.WindowSample, error) {
	if key.user < 0 || key.user >= len(d.Pop.Users) {
		return nil, fmt.Errorf("experiments: user index %d out of range", key.user)
	}
	d.mu.Lock()
	cached, ok := d.winCache[key]
	d.mu.Unlock()
	if ok {
		return cached, nil
	}
	samples, err := collect()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.winCache[key] = samples
	d.mu.Unlock()
	return samples, nil
}

// ImpostorWindows concatenates every non-target user's windows — the
// anonymized population the Authentication Server trains against.
func (d *Data) ImpostorWindows(target int, windowSeconds float64) ([]features.WindowSample, error) {
	var out []features.WindowSample
	for i := range d.Pop.Users {
		if i == target {
			continue
		}
		samples, err := d.UserWindows(i, windowSeconds)
		if err != nil {
			return nil, err
		}
		out = append(out, samples...)
	}
	return out, nil
}

// Detector returns (and caches) a context detector trained on the upper
// half of the population — users that are never used as authentication
// targets, so the detector is user-agnostic with respect to every target.
func (d *Data) Detector(windowSeconds float64) (*ctxdetect.Detector, error) {
	d.mu.Lock()
	det, ok := d.detCache[windowSeconds]
	d.mu.Unlock()
	if ok {
		return det, nil
	}
	var train []features.WindowSample
	// Context training uses lab-style sessions over all four fine-grained
	// contexts (Section V-E1) from the non-target half of the population.
	start := d.Cfg.Users / 2
	if start <= d.Cfg.Targets {
		start = d.Cfg.Targets
	}
	if start >= d.Cfg.Users {
		start = d.Cfg.Users - 1
	}
	for i := start; i < d.Cfg.Users; i++ {
		samples, err := d.LabWindows(i, windowSeconds)
		if err != nil {
			return nil, err
		}
		train = append(train, samples...)
	}
	det, err := ctxdetect.Train(ctxdetect.FromSamples(train), ctxdetect.Config{Seed: d.Cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: train context detector: %w", err)
	}
	d.mu.Lock()
	d.detCache[windowSeconds] = det
	d.mu.Unlock()
	return det, nil
}

// DeploymentWindows collects held-out test sessions recorded the day
// after the collection campaign ends (day Days+1) — the "current
// behaviour" the fielded system sees, used by the data-size sweep of
// Fig. 5.
func (d *Data) DeploymentWindows(userIdx int, windowSeconds float64) ([]features.WindowSample, error) {
	return d.cachedWindows(winKey{"deployment", userIdx, windowSeconds}, func() ([]features.WindowSample, error) {
		return recordUsage(sensing.Session{
			User:    d.Pop.Users[userIdx],
			Day:     d.Cfg.Days + 1,
			Seconds: d.Cfg.SessionSeconds,
			Seed:    d.Cfg.Seed*3_000_017 + int64(userIdx)*15485863,
		}, 29, windowSeconds)
	})
}

// usageContexts are the two free-form usage contexts, in recording order.
var usageContexts = []sensing.Context{sensing.ContextStationaryUse, sensing.ContextMovingUse}

// recordUsage records sess once per usage context; the recording of
// usageContexts[i] is seeded sess.Seed + i*seedStride.
func recordUsage(sess sensing.Session, seedStride int64, windowSeconds float64) ([]features.WindowSample, error) {
	var out []features.WindowSample
	base := sess.Seed
	for i, ctx := range usageContexts {
		sess.Context, sess.Seed = ctx, base+int64(i)*seedStride
		got, err := features.Record(sess, windowSeconds)
		if err != nil {
			return nil, err
		}
		out = append(out, got...)
	}
	return out, nil
}

// LabWindows collects controlled-condition data over all four fine-grained
// contexts for one user — the lab recording protocol of Section V-E1.
func (d *Data) LabWindows(userIdx int, windowSeconds float64) ([]features.WindowSample, error) {
	if userIdx < 0 || userIdx >= len(d.Pop.Users) {
		return nil, fmt.Errorf("experiments: user index %d out of range", userIdx)
	}
	return features.Collect(d.Pop.Users[userIdx], features.CollectOptions{
		WindowSeconds:  windowSeconds,
		SessionSeconds: d.Cfg.SessionSeconds,
		Sessions:       1,
		Contexts:       sensing.AllContexts(),
		Seed:           d.Cfg.Seed*2_000_003 + int64(userIdx)*104729,
	})
}
