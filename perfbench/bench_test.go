package main

import (
	"context"
	"testing"

	"repro/internal/mapping"
)

// TestTracedDistributedRun drives one small distributed run through the
// counting rig and checks the traced run against an in-process Scenario.Run.
func TestTracedDistributedRun(t *testing.T) {
	ctx := context.Background()
	u := unit{Topo: "Campus", App: "ScaLapack", Duration: 2, Seed: 1,
		Kind: opDist, Approaches: []mapping.Approach{mapping.Top}}
	l, err := setupUnit(ctx, nil, u, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	r := runOp(ctx, tr, l, 0)
	if r.failed() {
		t.Fatalf("distributed run failed: %v %v", r.Err, r.Fails)
	}
	d := r.Dist
	if d == nil || d.CoordSent == 0 || d.WireBytes == 0 || len(d.RTTs) == 0 || d.FirstWindow.IsZero() {
		t.Fatalf("wrapper counted nothing: %+v", d)
	}
	names := map[string]bool{}
	for _, s := range tr.Spans() {
		names[s.Name] = true
	}
	for _, n := range []string{"core.RunDistributed", "dist.prewire", "dist.handshake", "dist.windows"} {
		if !names[n] {
			t.Errorf("no %s span", n)
		}
	}
	checkDistAgainstInProcess(ctx, []unit{u}, []*opResult{r})
	if r.failed() {
		t.Fatalf("distributed result differs from in-process: %v", r.Fails)
	}
}

// TestDecomposedRunMatchesScenarioRun checks that the traced decomposition
// of Scenario.Run reproduces its output for every approach.
func TestDecomposedRunMatchesScenarioRun(t *testing.T) {
	ctx := context.Background()
	u := unit{Topo: "Campus", App: "ScaLapack", Duration: 2, Seed: 1,
		Kind: opRun, Approaches: mapping.Approaches()}
	plain, err := setupUnit(ctx, nil, u, false)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	traced, err := setupUnit(ctx, tr, u, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range u.Approaches {
		want, got := runOp(ctx, nil, plain, i), runOp(ctx, tr, traced, i)
		if want.failed() || got.failed() {
			t.Fatalf("%s: %v %v / %v %v", a, want.Err, want.Fails, got.Err, got.Fails)
		}
		if got.Digest != want.Digest {
			t.Errorf("%s: traced decomposition output differs from Scenario.Run", a)
		}
	}
}
