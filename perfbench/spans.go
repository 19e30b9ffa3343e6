package main

import (
	"runtime"
	"sort"
	"time"
)

// Span is one timed call the benchmark made into a layer's public function.
// Spans are kept in memory and written out when the run ends.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a top-level span
	Run    int    `json:"run"`    // the operation (cell, distributed run, policy) it belongs to
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Allocs, AllocBytes and GCs are runtime.MemStats deltas across the
	// span; zero for spans recorded from outside timestamps (Add).
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCs        uint32 `json:"gcs"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer records spans from a single goroutine. A nil *Tracer is a valid
// disabled tracer: every method is a no-op, so the untraced path runs the
// same code without reading the clock or the allocator statistics.
type Tracer struct {
	epoch time.Time
	spans []Span
	open  []int // indices of open spans, innermost last
	run   int
	ms    runtime.MemStats
}

// NewTracer starts a tracer whose span offsets count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// SetRun tags subsequently opened spans with an operation ID.
func (t *Tracer) SetRun(id int) {
	if t != nil {
		t.run = id
	}
}

// Since converts a wall-clock instant into the tracer's offset.
func (t *Tracer) Since(at time.Time) time.Duration { return at.Sub(t.epoch) }

// Begin opens a span nested in the innermost open one and returns its ID.
func (t *Tracer) Begin(name string) int {
	if t == nil {
		return -1
	}
	runtime.ReadMemStats(&t.ms)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	// Counters hold the start values until End turns them into deltas.
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Name: name,
		Allocs: t.ms.Mallocs, AllocBytes: t.ms.TotalAlloc, GCs: t.ms.NumGC,
		Start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

// End closes span id, which must be the innermost open span.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch)
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[id]
	s.End = end
	s.Allocs = t.ms.Mallocs - s.Allocs
	s.AllocBytes = t.ms.TotalAlloc - s.AllocBytes
	s.GCs = t.ms.NumGC - s.GCs
	t.open = t.open[:len(t.open)-1]
}

// Add records a span measured elsewhere (e.g. by a connection wrapper) as a
// child of the innermost open span. Unset or reversed instants record
// nothing.
func (t *Tracer) Add(name string, start, end time.Time) {
	if t == nil || start.IsZero() || end.IsZero() || end.Before(start) {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, Span{ID: len(t.spans), Parent: parent, Run: t.run, Name: name,
		Start: t.Since(start), End: t.Since(end)})
}

// Spans returns the recorded spans (IDs equal indices).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once, and children are clipped to the parent's interval.
func SelfTimes(spans []Span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.Dur() - covered(s.Start, s.End, spans, kids[i])
	}
	return out
}

// covered is the length of the union of the child intervals within [lo, hi].
func covered(lo, hi time.Duration, spans []Span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}
