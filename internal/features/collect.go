package features

import (
	"fmt"

	"smarteryou/internal/sensing"
)

// WindowSample is one authentication observation: the features both
// devices extracted from the same time window, with its provenance.
type WindowSample struct {
	UserID  string
	Context sensing.Context
	Day     float64
	Phone   DeviceFeatures
	Watch   DeviceFeatures
}

// Vector assembles the sample's feature vector for a device configuration.
// combined selects the 28-dim two-device vector of Eq. 4; otherwise the
// 14-dim phone vector of Eq. 3.
func (w WindowSample) Vector(combined bool) []float64 {
	if combined {
		return CombinedAuthVector(w.Phone, w.Watch)
	}
	return w.Phone.AuthVector()
}

// AppendVector appends the sample's feature vector to dst — the
// allocation-free form of Vector for hot paths that reuse a buffer.
func (w WindowSample) AppendVector(dst []float64, combined bool) []float64 {
	dst = w.Phone.AppendAuthVector(dst)
	if combined {
		dst = w.Watch.AppendAuthVector(dst)
	}
	return dst
}

// CheckFinite refuses windows that carry a NaN or infinite feature on
// either device, naming the first. Such a window scores NaN against any
// model, and trained beside other users' windows it makes their
// training matrices singular, so the server stores none.
func CheckFinite(samples []WindowSample) error {
	for i := range samples {
		if !samples[i].Phone.Acc.finite() || !samples[i].Phone.Gyr.finite() ||
			!samples[i].Watch.Acc.finite() || !samples[i].Watch.Gyr.finite() {
			return fmt.Errorf("features: window %d has a NaN or infinite feature", i)
		}
	}
	return nil
}

// WatchVector returns the watch-only 14-dim vector, for the device
// ablation of Fig. 4 / Fig. 5.
func (w WindowSample) WatchVector() []float64 {
	return w.Watch.AuthVector()
}

// CollectOptions configure synthetic data collection for one user —
// the stand-in for the paper's two-week free-form recording campaign.
type CollectOptions struct {
	// WindowSeconds is the feature window length (the paper settles on 6).
	WindowSeconds float64
	// SessionSeconds is the length of each recording session.
	SessionSeconds float64
	// Sessions is how many sessions to record per context.
	Sessions int
	// Days spreads the sessions uniformly over [0, Days] of behavioural
	// drift. Zero records everything at enrollment time.
	Days float64
	// Contexts to record; defaults to stationary-use and moving-use.
	Contexts []sensing.Context
	// Seed derives per-session seeds deterministically.
	Seed int64
	// MimicOf and MimicFidelity pass through to the generated sessions for
	// attack experiments.
	MimicOf       *sensing.UserParams
	MimicFidelity float64
}

func (o CollectOptions) withDefaults() CollectOptions {
	if o.WindowSeconds == 0 {
		o.WindowSeconds = 6
	}
	if o.SessionSeconds == 0 {
		o.SessionSeconds = 120
	}
	if o.Sessions == 0 {
		o.Sessions = 5
	}
	if len(o.Contexts) == 0 {
		o.Contexts = []sensing.Context{sensing.ContextStationaryUse, sensing.ContextMovingUse}
	}
	return o
}

// SessionPlan returns the deterministic recording sessions Collect will
// generate for the user — exposed so experiments that need raw sensor
// streams (sensor selection, KS tests) sample the exact same campaign.
func SessionPlan(u *sensing.User, opt CollectOptions) []sensing.Session {
	opt = opt.withDefaults()
	var out []sensing.Session
	sessionIdx := 0
	for _, ctx := range opt.Contexts {
		for si := 0; si < opt.Sessions; si++ {
			day := 0.0
			if opt.Sessions > 1 && opt.Days > 0 {
				day = opt.Days * float64(si) / float64(opt.Sessions-1)
			}
			out = append(out, sensing.Session{
				User:          u,
				Context:       ctx,
				Day:           day,
				Seconds:       opt.SessionSeconds,
				Seed:          opt.Seed + int64(sessionIdx)*7919,
				MimicOf:       opt.MimicOf,
				MimicFidelity: opt.MimicFidelity,
			})
			sessionIdx++
		}
	}
	return out
}

// Collect generates opt.Sessions recording sessions per context for the
// user and extracts windowed feature samples from both devices.
func Collect(u *sensing.User, opt CollectOptions) ([]WindowSample, error) {
	if u == nil {
		return nil, fmt.Errorf("features: nil user")
	}
	opt = opt.withDefaults()
	var out []WindowSample
	for _, sess := range SessionPlan(u, opt) {
		got, err := Record(sess, opt.WindowSeconds)
		if err != nil {
			return nil, fmt.Errorf("features: collect %s: %w", u.ID, err)
		}
		out = append(out, got...)
	}
	return out, nil
}

// Record generates one session on both devices and pairs their windows:
// the one place a recording session becomes WindowSamples.
func Record(sess sensing.Session, windowSeconds float64) ([]WindowSample, error) {
	phone, err := sess.Generate(sensing.DevicePhone)
	if err != nil {
		return nil, fmt.Errorf("features: record phone: %w", err)
	}
	watch, err := sess.Generate(sensing.DeviceWatch)
	if err != nil {
		return nil, fmt.Errorf("features: record watch: %w", err)
	}
	return Pair(sess, phone, watch, windowSeconds)
}

// Pair extracts the windows of one session's phone and watch streams and
// pairs them index by index, labelled with the session's user, context and
// day; the longer stream's extra windows are dropped. Record calls it on
// the generated streams; a caller that transforms a stream first (a lower
// sampling rate) calls it directly.
func Pair(sess sensing.Session, phone, watch *sensing.Stream, windowSeconds float64) ([]WindowSample, error) {
	// One extractor for both devices: they share the FFT plan and scratch.
	e := extractorPool.Get().(*Extractor)
	defer extractorPool.Put(e)
	phoneWins, err := e.ExtractWindows(phone, windowSeconds)
	if err != nil {
		return nil, fmt.Errorf("features: phone windows: %w", err)
	}
	watchWins, err := e.ExtractWindows(watch, windowSeconds)
	if err != nil {
		return nil, fmt.Errorf("features: watch windows: %w", err)
	}
	out := make([]WindowSample, min(len(phoneWins), len(watchWins)))
	for k := range out {
		out[k] = WindowSample{
			UserID:  sess.User.ID,
			Context: sess.Context,
			Day:     sess.Day,
			Phone:   phoneWins[k],
			Watch:   watchWins[k],
		}
	}
	return out, nil
}

// SplitByCoarseContext partitions samples into the two coarse contexts,
// the grouping the per-context authentication models are trained on.
// A counting pass sizes each context's slice, so the split copies every
// window once.
func SplitByCoarseContext(samples []WindowSample) map[sensing.CoarseContext][]WindowSample {
	counts := make(map[sensing.CoarseContext]int, 2)
	for _, s := range samples {
		counts[s.Context.Coarse()]++
	}
	out := make(map[sensing.CoarseContext][]WindowSample, len(counts))
	for c, n := range counts {
		out[c] = make([]WindowSample, 0, n)
	}
	for _, s := range samples {
		c := s.Context.Coarse()
		out[c] = append(out[c], s)
	}
	return out
}
