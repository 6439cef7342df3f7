package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"time"
)

// Spans are recorded by the benchmark's own wrappers around each call
// into a layer; nothing inside the program under test is instrumented.
// A span names the layer and call ("features.extract.phone"), the span
// that caused it and the request both belong to. Spans stay in memory
// and are written out as JSON lines when the run ends.
type span struct {
	ID, Parent, Request uint32
	Name                spanName
	Start, End          int64 // ns since processEpoch
}

type spanName uint8

const (
	spanRequest spanName = iota
	spanExtractPhone
	spanExtractWatch
	spanAuthenticate
	spanAuthRTT
	spanBatchRTT
	spanStreamOpen
	spanStreamBurst
	spanStreamClose
	spanEnrollRTT
	spanReenrollRTT
	spanTrainRTT
	spanFetchRTT
	spanFetchUnchangedRTT
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanRequest:           "request",
	spanExtractPhone:      "features.extract.phone",
	spanExtractWatch:      "features.extract.watch",
	spanAuthenticate:      "core.authenticate",
	spanAuthRTT:           "transport.authenticate",
	spanBatchRTT:          "transport.authenticate_batch",
	spanStreamOpen:        "transport.stream_open",
	spanStreamBurst:       "transport.stream_burst",
	spanStreamClose:       "transport.stream_close",
	spanEnrollRTT:         "transport.enroll",
	spanReenrollRTT:       "transport.reenroll",
	spanTrainRTT:          "transport.train",
	spanFetchRTT:          "transport.fetch_model",
	spanFetchUnchangedRTT: "transport.fetch_model_unchanged",
}

var processEpoch = time.Now()

func nowNS() int64 { return int64(time.Since(processEpoch)) }

// recorder belongs to one goroutine. A nil recorder is tracing switched
// off: the workloads call begin/end unconditionally, so the traced and
// the untraced run execute the same code.
type recorder struct {
	base  uint32 // keeps IDs of different sessions apart
	spans []span
}

// maxSpansPerRecorder bounds trace memory (32 B a span); past it the
// run goes on and further spans are dropped, which the output states.
const maxSpansPerRecorder = 1 << 20

func newRecorder(session int) *recorder {
	return &recorder{base: uint32(session) << 24, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its handle (-1 when not recording).
// parent is a handle from the same recorder, or -1 for a request root.
func (r *recorder) begin(name spanName, parent int) int {
	if r == nil || len(r.spans) >= maxSpansPerRecorder {
		return -1
	}
	i := len(r.spans)
	id := r.base + uint32(i) + 1
	s := span{ID: id, Request: id, Name: name, Start: nowNS()}
	if parent >= 0 {
		s.Parent = r.spans[parent].ID
		s.Request = r.spans[parent].Request
	}
	r.spans = append(r.spans, s)
	return i
}

func (r *recorder) end(h int) {
	if h >= 0 {
		r.spans[h].End = nowNS()
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover. Children may overlap each other and
// may stick out of the parent; covered time is the union of the child
// intervals clipped to the parent.
func selfTimes(spans []span) map[uint32]int64 {
	children := make(map[uint32][]int, len(spans)/2)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[uint32]int64, len(spans))
	for _, s := range spans {
		dur := s.End - s.Start
		kids := children[s.ID]
		if len(kids) == 0 {
			self[s.ID] = dur
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = dur - covered
	}
	return self
}

// spanSummary folds spans into per-name histograms of total and self time.
type spanSummary struct {
	total, self [numSpanNames]hist
}

func summarize(spans []span) *spanSummary {
	sum := &spanSummary{}
	self := selfTimes(spans)
	for _, s := range spans {
		sum.total[s.Name].record(s.End - s.Start)
		sum.self[s.Name].record(self[s.ID])
	}
	return sum
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, s := range spans {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendUint(line, uint64(s.ID), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendUint(line, uint64(s.Parent), 10)
		line = append(line, `,"request":`...)
		line = strconv.AppendUint(line, uint64(s.Request), 10)
		line = append(line, `,"name":"`...)
		line = append(line, spanNames[s.Name]...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.Start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.End, 10)
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
