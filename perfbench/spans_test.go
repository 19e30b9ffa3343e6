package main

import (
	"testing"
	"time"
)

// sink keeps a test allocation from being optimized away.
var sink []byte

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func span(id, parent int, start, end int) Span {
	return Span{ID: id, Parent: parent, Start: ms(start), End: ms(end)}
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []Span
		want  []time.Duration
	}{
		{
			name:  "no children",
			spans: []Span{span(0, -1, 0, 10), span(1, -1, 10, 13)},
			want:  []time.Duration{ms(10), ms(3)},
		},
		{
			name:  "nested",
			spans: []Span{span(0, -1, 0, 10), span(1, 0, 2, 5), span(2, 1, 3, 4)},
			want:  []time.Duration{ms(7), ms(2), ms(1)},
		},
		{
			// Overlapping children count once; a child running past its
			// parent is clipped to the parent's interval.
			name:  "overlapping children",
			spans: []Span{span(0, -1, 0, 10), span(1, 0, 1, 4), span(2, 0, 3, 6), span(3, 0, 8, 12)},
			want:  []time.Duration{ms(3), ms(3), ms(3), ms(4)},
		},
		{
			name:  "child covers parent",
			spans: []Span{span(0, -1, 5, 9), span(1, 0, 0, 20)},
			want:  []time.Duration{0, ms(20)},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := SelfTimes(c.spans)
			for i := range c.want {
				if got[i] != c.want[i] {
					t.Errorf("span %d: self %v, want %v", i, got[i], c.want[i])
				}
			}
		})
	}
}

func TestTracerNesting(t *testing.T) {
	tr := NewTracer()
	tr.SetRun(3)
	outer := tr.Begin("outer")
	inner := tr.Begin("inner")
	sink = make([]byte, 1<<20)
	tr.End(inner)
	now := time.Now()
	tr.Add("measured", now, now.Add(ms(1)))
	tr.End(outer)
	top := tr.Begin("top")
	tr.End(top)

	s := tr.Spans()
	if len(s) != 4 {
		t.Fatalf("%d spans, want 4", len(s))
	}
	wantParent := []int{-1, outer, outer, -1}
	for i, p := range wantParent {
		if s[i].Parent != p {
			t.Errorf("span %s: parent %d, want %d", s[i].Name, s[i].Parent, p)
		}
		if s[i].Run != 3 {
			t.Errorf("span %s: run %d, want 3", s[i].Name, s[i].Run)
		}
		if s[i].End < s[i].Start {
			t.Errorf("span %s ends before it starts", s[i].Name)
		}
	}
	if s[inner].Allocs == 0 || s[inner].AllocBytes < 1<<20 {
		t.Errorf("inner span allocation delta %d objects / %d bytes, want the 1 MiB buffer", s[inner].Allocs, s[inner].AllocBytes)
	}
	if s[outer].AllocBytes < s[inner].AllocBytes {
		t.Errorf("outer span allocated %d bytes, less than its child's %d", s[outer].AllocBytes, s[inner].AllocBytes)
	}
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	tr.SetRun(1)
	id := tr.Begin("x")
	tr.Add("y", time.Now(), time.Now())
	tr.End(id)
	if tr.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}
}
