package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program, or
// an interval a layer reported about itself (a job's queue and run times).
// Spans of one iteration, job or sweep share a Trace; Parent 0 marks a root.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only for the clock reads that time each op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span. Its clock runs whether or not a tracer records it,
// so the same handle times an op in untraced runs.
type span struct {
	tr     *tracer
	id     int64
	parent int64
	trace  int64
	name   string
	start  time.Time
	stop   time.Time // set by end
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// root opens a span that starts a new trace.
func (t *tracer) root(name string) span {
	id := t.newID()
	return span{tr: t, id: id, trace: id, name: name, start: time.Now()}
}

// child opens a span under s.
func (s span) child(name string) span {
	return span{tr: s.tr, id: s.tr.newID(), parent: s.id, trace: s.trace, name: name, start: time.Now()}
}

// end closes s, records it, and returns its duration.
func (s *span) end() time.Duration {
	s.stop = time.Now()
	s.tr.record(Span{ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name}, s.start, s.stop)
	return s.stop.Sub(s.start)
}

// add records a finished child of s whose interval the caller knows, such as
// the queue and run times a job reports on its status, and returns it so
// children can be attached in turn.
func (s span) add(name string, start, end time.Time) span {
	c := span{tr: s.tr, id: s.tr.newID(), parent: s.id, trace: s.trace, name: name, start: start, stop: end}
	s.tr.record(Span{ID: c.id, Parent: c.parent, Trace: c.trace, Name: name}, start, end)
	return c
}

func (t *tracer) record(sp Span, start, end time.Time) {
	if t == nil {
		return
	}
	sp.Start = start.Sub(t.t0).Nanoseconds()
	sp.End = end.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write stores every recorded span as one JSON array.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns every span's self time in ns: its duration minus the
// part of its interval that the union of its children's intervals covers.
// Children may overlap one another (parallel workers) and are clipped to the
// parent's interval.
func selfTimes(spans []Span) map[int64]int64 {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans' intervals
// covers.
func covered(lo, hi int64, spans []Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
