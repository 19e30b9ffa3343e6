package emu

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// TestTraceTimelineCoversRun pins the observation-plane integration: one
// committed timeline window per kernel window, compute spans for exactly the
// active engines, and modeled busy derived from the same cost model as the
// engine loads.
func TestTraceTimelineCoversRun(t *testing.T) {
	tl := obs.NewTimeline()
	cfg := telConfig()
	res, err := Run(cfg, WithTrace(tl))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tl.Windows(), res.Kernel.Windows; got != want {
		t.Fatalf("timeline windows %d != kernel windows %d", got, want)
	}
	var busy [2]float64
	for _, s := range tl.Spans() {
		if s.Kind != obs.SpanCompute {
			continue
		}
		if s.End <= s.Start {
			t.Fatalf("degenerate span bounds: %+v", s)
		}
		busy[s.Engine] += s.Busy
	}
	// The default cost model charges PerEvent per kernel event and PerRemote
	// per cross-engine send — the same quantities EngineLoads counts.
	cost := PentiumIICluster
	for lp := range busy {
		want := res.EngineLoads[lp]*cost.PerEvent + float64(res.Kernel.RemoteSends[lp])*cost.PerRemote
		if diff := busy[lp] - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("engine %d traced busy %g, cost model says %g", lp, busy[lp], want)
		}
	}
}

// TestTraceCanonicalDeterministic: identical runs produce byte-identical
// canonical span projections, the same contract as the result path.
func TestTraceCanonicalDeterministic(t *testing.T) {
	render := func() []byte {
		tl := obs.NewTimeline()
		if _, err := Run(telConfig(), WithTrace(tl)); err != nil {
			t.Fatal(err)
		}
		return tl.CanonicalJSON()
	}
	first := render()
	if len(first) == 0 {
		t.Fatal("empty canonical projection")
	}
	if !bytes.Equal(first, render()) {
		t.Error("canonical spans differ between identical runs")
	}
}

// TestTraceStragglerAttribution injects a 10x straggler on engine 1 and
// requires both attribution surfaces — the timeline's health rows and the
// RunStats counters — to blame it for the majority of the critical path.
func TestTraceStragglerAttribution(t *testing.T) {
	cfg := telConfig()
	cfg.Faults = &faults.Schedule{Stragglers: []faults.Straggler{
		{Engine: 1, From: 0, To: cfg.Workload.Duration, Factor: 10},
	}}
	tl := obs.NewTimeline()
	res, err := Run(cfg, WithTrace(tl), WithStats())
	if err != nil {
		t.Fatal(err)
	}
	var slow *obs.WorkerHealth
	for _, h := range tl.Health() {
		h := h
		if h.Worker == 1 {
			slow = &h
		}
	}
	if slow == nil {
		t.Fatal("straggler engine has no health row")
	}
	if slow.Share < 0.5 {
		t.Errorf("straggler critical-path share %.2f < 0.5", slow.Share)
	}
	st := res.Obs
	if st == nil {
		t.Fatal("WithStats produced no RunStats")
	}
	if len(st.Gated) < 2 || st.Gated[1] == 0 {
		t.Fatalf("RunStats.Gated = %v, want engine 1 gating windows", st.Gated)
	}
	if len(st.CriticalPath) < 2 || st.CriticalPath[1] != slow.CriticalPath {
		t.Errorf("RunStats.CriticalPath = %v, timeline says %g", st.CriticalPath, slow.CriticalPath)
	}
	if s := st.String(); !bytes.Contains([]byte(s), []byte("straggler: worker 1")) {
		t.Errorf("summary line missing straggler attribution: %q", s)
	}
}

// TestTraceResultUnchanged: attaching a timeline must not perturb the
// simulation — the canonical result quantities are identical with tracing on
// and off.
func TestTraceResultUnchanged(t *testing.T) {
	cfg := telConfig()
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Run(cfg, WithTrace(obs.NewTimeline()))
	if err != nil {
		t.Fatal(err)
	}
	if base.AppTime != traced.AppTime || base.NetTime != traced.NetTime ||
		base.Imbalance != traced.Imbalance || base.RemoteEvents != traced.RemoteEvents {
		t.Errorf("tracing changed the result: %+v vs %+v", base, traced)
	}
}

// TestTraceDisabledZeroAddedAllocs is the disabled-path cost gate: a run with
// tracing disabled must allocate exactly like a run with no trace option at
// all — the window observer sees one nil check.
func TestTraceDisabledZeroAddedAllocs(t *testing.T) {
	cfg := telConfig()
	// Warm the shared routing cache so neither measurement pays the one-time
	// build.
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	off := testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg, WithTrace(nil)); err != nil {
			t.Fatal(err)
		}
	})
	if off > base {
		t.Errorf("disabled tracing allocates more than the bare path: %.1f > %.1f per run", off, base)
	}
}

// BenchmarkEmuTraceOff is the CI smoke baseline (BENCH_trace.json): the
// trace-disabled emulator must not regress against the seed path.
func BenchmarkEmuTraceOff(b *testing.B) {
	cfg := benchConfig()
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmuTraceOn measures the enabled-path overhead at steady state:
// per-window span derivation, timeline commit and attribution bookkeeping.
// The timeline is reused via Reset — retained capacity is the deployed shape
// (the recovery fallback and any long-lived collector reuse one timeline), so
// the first run's append growth is paid once, not per measurement.
func BenchmarkEmuTraceOn(b *testing.B) {
	cfg := benchConfig()
	tl := obs.NewTimeline()
	if _, err := Run(cfg, WithTrace(tl)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Reset()
		if _, err := Run(cfg, WithTrace(tl)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTraceOverheadGate is the enabled-path cost gate: tracing-on must cost
// at most 1.3x tracing-off ns/op on the 4-node line benchmark, at steady
// state (timeline reused via Reset, matching BenchmarkEmuTraceOn). Each round
// alternates an untraced and a traced run per iteration, so host drift, GC
// pressure and frequency scaling inflate both halves of the ratio equally;
// the gate takes the median over five such rounds.
func TestTraceOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full emulation benchmarks")
	}
	cfg := benchConfig()
	tl := obs.NewTimeline()
	for i := 0; i < 10; i++ { // warm caches, steady the allocator
		tl.Reset()
		if _, err := Run(cfg, WithTrace(tl)); err != nil {
			t.Fatal(err)
		}
	}
	const rounds, iters = 5, 400
	ratios := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		var off, on time.Duration
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			_, err := Run(cfg)
			t1 := time.Now()
			tl.Reset()
			_, terr := Run(cfg, WithTrace(tl))
			t2 := time.Now()
			if err != nil || terr != nil {
				t.Fatal(err, terr)
			}
			off += t1.Sub(t0)
			on += t2.Sub(t1)
		}
		ratios = append(ratios, float64(on)/float64(off))
		t.Logf("round %d: off %v, on %v, ratio %.2fx", r, off/iters, on/iters, float64(on)/float64(off))
	}
	sort.Float64s(ratios)
	if median := ratios[rounds/2]; median > 1.3 {
		t.Errorf("tracing-on overhead %.2fx > 1.3x (median of %d interleaved rounds: %v)", median, rounds, ratios)
	}
}
