package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer's public function, recorded by the
// benchmark around the call — the program itself carries no tracing. Times
// are nanoseconds since the tracer's origin; Parent is 0 for a root.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: Start returns 0 and End does nothing, so the measured
// code path is the same with tracing on or off.
type Tracer struct {
	trace  string
	origin time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer(traceID string) *Tracer {
	return &Tracer{trace: traceID, origin: time.Now()}
}

// Start opens a span under parent (0 for a root) and returns its id.
func (t *Tracer) Start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: t.trace, Name: name, Start: now, End: -1})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Do runs fn under a span named name.
func (t *Tracer) Do(name string, parent int, fn func()) {
	id := t.Start(name, parent)
	fn()
	t.End(id)
}

// Spans returns a copy of the closed spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// Import appends spans recorded elsewhere (a child process's tracer),
// renumbering their ids after this tracer's own.
func (t *Tracer) Import(spans []Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// WriteFile writes the spans as JSON, each with its self time.
func (t *Tracer) WriteFile(path string) error {
	spans := t.Spans()
	self := selfTimes(spans)
	type row struct {
		Span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, int64(self[s.ID])}
	}
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// it its direct children cover. Overlapping children (concurrent calls
// under one parent) count once, and child time outside the parent's
// interval is ignored.
func selfTimes(spans []Span) map[int]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - time.Duration(coverage(children[s.ID], s.Start, s.End))
	}
	return out
}

// coverage is the length of the union of ivs clipped to [lo, hi].
func coverage(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanSeconds sums the durations of spans named name, in seconds.
func spanSeconds(spans []Span, name string) float64 {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.Dur()
		}
	}
	return d.Seconds()
}
