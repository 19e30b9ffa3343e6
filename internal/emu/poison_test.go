package emu

import (
	"errors"
	"testing"

	"repro/internal/des"
	"repro/internal/netgraph"
)

// A payload type no handler knows — what a corrupted or version-skewed wire
// event decodes into if the kind check is ever bypassed.
type alienPayload struct{}

// TestUnknownPayloadPoisonsRun drives an unknown event payload through the
// main emulation handler: the run must fail with ErrBadConfig at the next
// barrier instead of panicking the process (a distributed worker must survive
// a malformed peer).
func TestUnknownPayloadPoisonsRun(t *testing.T) {
	cfg := Config{
		Network:    lineNet(),
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   oneFlow(1<<20, 0.5),
	}
	var o runOptions
	e, err := prepare(&cfg, &o)
	if err != nil {
		t.Fatal(err)
	}
	desCfg := e.kernelConfig()
	desCfg.Observer = e.observe
	kernel, err := des.New(desCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err = e.seed(kernel, nil); err != nil {
		t.Fatal(err)
	}
	if err = kernel.Schedule(0, 0.25, alienPayload{}); err != nil {
		t.Fatal(err)
	}
	_, err = kernel.Run()
	if err == nil {
		t.Fatal("unknown payload must poison the run")
	}
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("poisoned run must wrap ErrBadConfig, got %v", err)
	}
}

// TestTracerouteUnknownPayloadPoisonsRun covers the same contract on the ICMP
// discovery kernel: its handler shares the poison-don't-panic rule.
func TestTracerouteUnknownPayloadPoisonsRun(t *testing.T) {
	nw := lineNet()
	assignment := []int{0, 0, 0, 0}
	tr := &tracerouteRun{
		nw:         nw,
		rt:         nw.SharedRoutingTable(),
		assignment: assignment,
		answers:    make(map[int]netgraph.Hop),
	}
	kernel, err := des.New(des.Config{
		NumLPs:    1,
		Lookahead: Lookahead(nw, assignment, 0),
		Handler:   tr.handle,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err = kernel.Schedule(0, 1e-3, alienPayload{}); err != nil {
		t.Fatal(err)
	}
	_, err = kernel.Run()
	if err == nil {
		t.Fatal("unknown traceroute payload must poison the run")
	}
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("poisoned traceroute must wrap ErrBadConfig, got %v", err)
	}
}

// TestDecodeWireRejectsMalformedEvents: a worker receiving garbage wire
// events must get errors, not panics or silent misdelivery.
func TestDecodeWireRejectsMalformedEvents(t *testing.T) {
	cfg := Config{
		Network:    lineNet(),
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   oneFlow(1<<20, 0.5),
	}
	var o runOptions
	e, err := prepare(&cfg, &o)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []WireEvent{
		{Kind: WireFlowStart, Flow: 99},      // flow out of range
		{Kind: WireFlowStart, Flow: -1},      // negative flow
		{Kind: WireChunk, Flow: 0, Hop: 100}, // hop past the path
		{Kind: 0xee, Flow: 0},                // unknown kind
	} {
		if _, err := e.decodeWire(w); err == nil {
			t.Errorf("malformed wire event %+v decoded without error", w)
		} else if !errors.Is(err, ErrBadConfig) {
			t.Errorf("wire decode error must wrap ErrBadConfig, got %v", err)
		}
	}
}
