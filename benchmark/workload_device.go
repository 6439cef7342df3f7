package main

import (
	"fmt"

	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/dsp"
	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
)

// deviceWorkload is device-continuous: the paper's on-phone continuous
// mode. One goroutine replays continuous 50 Hz phone and watch streams
// one 6 s slice at a time: extract features from the phone slice and the
// watch slice, then authenticate the window (context detection, model
// dispatch, score). No network and no store.
type deviceWorkload struct {
	auth     *core.Authenticator
	detector *ctxdetect.Detector
	ex       *features.Extractor
	slices   []deviceSlice
	// expected holds the decision each slice got in the warm-up pass; the
	// path is deterministic, so a different decision later is a failure.
	expected []core.Decision
	pos      int
	inDigest string
}

type deviceSlice struct {
	phone, watch *sensing.Stream // 300-sample views into one continuous stream
	context      sensing.Context
	class        class
	// whole and index locate the slice in its continuous stream, for the
	// check that slice-at-a-time extraction equals whole-stream extraction.
	whole [2]*sensing.Stream
	index int
}

const (
	deviceOwnerWindows = 40 // per context
	deviceAttackers    = 4
	deviceOtherWindows = 5 // per attacker and context, once as himself and once imitating the owner
)

func (w *deviceWorkload) sessions() int { return 1 }

func (w *deviceWorkload) traffic() netSnap { return netSnap{} }

func (w *deviceWorkload) setup(seed int64, _ string) error {
	pop, err := sensing.NewPopulation(1+deviceAttackers+detectorUsers, seed)
	if err != nil {
		return err
	}
	owner, attackers, rest := pop.Users[0], pop.Users[1:1+deviceAttackers], pop.Users[1+deviceAttackers:]

	// Enrollment data and the anonymized population, as windows.
	others := make([][]features.WindowSample, detectorUsers)
	var enroll []features.WindowSample
	err = parallelDo(detectorUsers+1, func(i int) error {
		if i == detectorUsers {
			ws, err := collect(owner, 120, subSeed(seed, 1, 0), nil)
			enroll = ws
			return err
		}
		ws, err := collect(rest[i], 48, subSeed(seed, 0, i), nil)
		others[i] = ws
		return err
	})
	if err != nil {
		return fmt.Errorf("generate enrollment: %w", err)
	}
	var population []features.WindowSample
	for _, ws := range others {
		population = append(population, ws...)
	}
	w.detector, err = ctxdetect.Train(ctxdetect.FromSamples(population), ctxdetect.Config{Seed: 1})
	if err != nil {
		return err
	}
	bundle, err := core.Train(enroll, population, core.TrainConfig{
		Mode: core.Mode{Combined: true, UseContext: true}, Seed: 1,
	})
	if err != nil {
		return err
	}
	if w.auth, err = core.NewAuthenticator(w.detector, bundle); err != nil {
		return err
	}

	// The continuous streams the phone and the watch record afterwards.
	type segmentSpec struct {
		user    *sensing.User
		mimic   *sensing.UserParams
		context sensing.Context
		windows int
		class   class
	}
	specs := []segmentSpec{
		{owner, nil, sensing.ContextMovingUse, deviceOwnerWindows, classGenuine},
		{owner, nil, sensing.ContextStationaryUse, deviceOwnerWindows, classGenuine},
	}
	for _, a := range attackers {
		specs = append(specs,
			segmentSpec{a, nil, sensing.ContextMovingUse, deviceOtherWindows, classImpostor},
			segmentSpec{a, nil, sensing.ContextStationaryUse, deviceOtherWindows, classImpostor},
			segmentSpec{a, &owner.Params, sensing.ContextMovingUse, deviceOtherWindows, classMimic},
			segmentSpec{a, &owner.Params, sensing.ContextStationaryUse, deviceOtherWindows, classMimic},
		)
	}
	streams := make([][2]*sensing.Stream, len(specs))
	err = parallelDo(len(specs)*2, func(j int) error {
		sp := specs[j/2]
		sess := sensing.Session{
			User: sp.user, Context: sp.context, Seconds: float64(sp.windows * windowSeconds),
			Seed: subSeed(seed, 5, j/2), MimicOf: sp.mimic, MimicFidelity: 0.8,
		}
		st, err := sess.Generate([]sensing.Device{sensing.DevicePhone, sensing.DeviceWatch}[j%2])
		streams[j/2][j%2] = st
		return err
	})
	if err != nil {
		return fmt.Errorf("generate streams: %w", err)
	}
	d := newDigest()
	d.windows(enroll)
	d.windows(population)
	w.slices = w.slices[:0]
	per := int(windowSeconds * sensing.SampleRate)
	for i, sp := range specs {
		d.stream(streams[i][0])
		d.stream(streams[i][1])
		for k := 0; k < sp.windows; k++ {
			view := func(s *sensing.Stream) *sensing.Stream {
				return &sensing.Stream{Rate: s.Rate, Samples: s.Samples[k*per : (k+1)*per]}
			}
			w.slices = append(w.slices, deviceSlice{
				phone: view(streams[i][0]), watch: view(streams[i][1]),
				context: sp.context, class: sp.class, whole: streams[i], index: k,
			})
		}
	}
	w.inDigest = d.hex()

	// Warm-up: one pass over every slice builds the FFT plan, sizes the
	// extractor's buffers and fills the pools.
	w.ex = features.NewExtractor()
	w.expected = make([]core.Decision, len(w.slices))
	for i := range w.slices {
		dec, err := w.decide(&w.slices[i], nil)
		if err != nil {
			return fmt.Errorf("warm-up slice %d: %w", i, err)
		}
		w.expected[i] = dec
	}
	w.pos = 0
	return nil
}

// decide is the whole per-window path of the phone, with a span around
// each call into a layer.
func (w *deviceWorkload) decide(sl *deviceSlice, rec *recorder) (core.Decision, error) {
	req := rec.begin(spanRequest, -1)
	h := rec.begin(spanExtractPhone, req)
	pw, err := w.ex.ExtractWindows(sl.phone, windowSeconds)
	rec.end(h)
	if err != nil {
		return core.Decision{}, err
	}
	h = rec.begin(spanExtractWatch, req)
	ww, err := w.ex.ExtractWindows(sl.watch, windowSeconds)
	rec.end(h)
	if err != nil {
		return core.Decision{}, err
	}
	h = rec.begin(spanAuthenticate, req)
	dec, err := w.auth.Authenticate(features.WindowSample{Context: sl.context, Phone: pw[0], Watch: ww[0]})
	rec.end(h)
	rec.end(req)
	return dec, err
}

func (w *deviceWorkload) loop(_ int, deadline int64, st *sessionStats, rec *recorder) {
	t0 := nowNS()
	for t0 < deadline {
		i := w.pos % len(w.slices)
		w.pos++
		sl := &w.slices[i]
		dec, err := w.decide(sl, rec)
		t1 := nowNS()
		st.ops++
		st.window.record(t1 - t0)
		if err != nil || dec != w.expected[i] {
			st.failed++
		} else {
			st.decided(sl.class, dec.Accepted)
		}
		t0 = t1
	}
}

func (w *deviceWorkload) verify(r *report) (attempted, failed int64, err error) {
	d := newDigest()
	var offered, accepted [numClasses]int64
	whole := map[*sensing.Stream][]features.DeviceFeatures{}
	for i := range w.slices {
		sl := &w.slices[i]
		dec, err := w.decide(sl, nil)
		if err != nil {
			return attempted, failed, err
		}
		d.decision(dec.Accepted, dec.Context.String())
		offered[sl.class]++
		if dec.Accepted {
			accepted[sl.class]++
		}
		// Slice-at-a-time extraction must equal extracting the continuous
		// stream in one call: windows do not overlap.
		for dev, s := range sl.whole {
			if whole[s] == nil {
				if whole[s], err = features.ExtractWindows(s, windowSeconds); err != nil {
					return attempted, failed, err
				}
			}
			view := []*sensing.Stream{sl.phone, sl.watch}[dev]
			got, err := w.ex.ExtractWindows(view, windowSeconds)
			if err != nil {
				return attempted, failed, err
			}
			attempted++
			if got[0] != whole[s][sl.index] {
				failed++
			}
		}
	}
	r.DecisionDigest = d.hex()
	r.InputDigest = w.inDigest
	attempted += checkBands(r, "replayed slices", offered, accepted, true, &failed)
	return attempted, failed, nil
}

func (w *deviceWorkload) layers(r *report, ref, traced *segment) error {
	sum := summarize(traced.spans)
	sl := &w.slices[0]

	// dsp, through its public functions on one 300-sample window.
	ax, ay, az := sl.phone.AccSeries()
	mag, err := dsp.MagnitudeSeries(ax, ay, az)
	if err != nil {
		return err
	}
	plan, err := dsp.PlanFor(len(mag))
	if err != nil {
		return err
	}
	detrended := dsp.Detrend(mag)
	var spec dsp.Spectrum
	spectrum := func() { _ = plan.AmplitudeSpectrumInto(&spec, detrended, sl.phone.Rate) }
	spectrumNS := probeNS(probeBudget, spectrum)
	prepNS := probeNS(probeBudget, func() {
		m, _ := dsp.MagnitudeSeries(ax, ay, az)
		_ = dsp.Detrend(m)
		_, _ = dsp.Stats(m)
	})
	r.set("dsp.spectrum_us", spectrumNS/1e3)
	r.set("dsp.spectrum_allocs", allocsPerCall(200, spectrum))
	r.set("dsp.prep_us", prepNS/1e3)
	// Two devices times two sensors: set by the shape of the pipeline,
	// not counted, because dsp cannot be wrapped from outside features.
	const spectraPerWindow = 4
	r.set("dsp.calls_per_window", spectraPerWindow)

	// features: spans around ExtractWindows, one per device and window.
	var extract hist
	extract.merge(&sum.total[spanExtractPhone])
	extract.merge(&sum.total[spanExtractWatch])
	extractUS := float64(extract.quantile(0.5)) / 1e3
	r.set("features.extract_us", extractUS)
	r.set("features.extract_allocs", allocsPerCall(200, func() { _, _ = w.ex.ExtractWindows(sl.phone, windowSeconds) }))
	dspShareUS := (spectraPerWindow / 2) * (spectrumNS + prepNS) / 1e3
	r.set("features.self_us", extractUS-dspShareUS)

	// ctxdetect and core, replaying the first window's features.
	pw, err := w.ex.ExtractWindows(sl.phone, windowSeconds)
	if err != nil {
		return err
	}
	ww, err := w.ex.ExtractWindows(sl.watch, windowSeconds)
	if err != nil {
		return err
	}
	sample := features.WindowSample{Context: sl.context, Phone: pw[0], Watch: ww[0]}
	r.set("ctxdetect.detect_ns", probeNS(probeBudget, func() { _, _ = w.detector.Detect(sample.Phone) }))
	score := func() { _, _ = w.auth.Authenticate(sample) }
	r.set("core.score_ns", probeNS(probeBudget, score))
	r.set("core.score_allocs", allocsPerCall(200, score))

	// Reconciliation: the untraced p50 against the sum of the layers'
	// self-time medians.
	e2e := float64(ref.window.quantile(0.5)) / 1e3
	parts := []budgetLine{
		{"features.extract.phone self", float64(sum.self[spanExtractPhone].quantile(0.5)) / 1e3},
		{"features.extract.watch self", float64(sum.self[spanExtractWatch].quantile(0.5)) / 1e3},
		{"core.authenticate self", float64(sum.self[spanAuthenticate].quantile(0.5)) / 1e3},
		{"request self (benchmark loop)", float64(sum.self[spanRequest].quantile(0.5)) / 1e3},
	}
	reconcile(r, "window_p50_us", e2e, parts)
	share := (parts[0].us + parts[1].us) / e2e
	r.note("features+dsp share of window_p50_us: %.1f%% (dsp alone %.1f%%)", 100*share, 100*2*dspShareUS/e2e)
	return nil
}

func (w *deviceWorkload) teardown() error { return nil }
