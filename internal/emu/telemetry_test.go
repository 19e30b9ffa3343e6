package emu

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/traffic"
)

func telConfig() Config {
	return Config{
		Network:    lineNet(),
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   spreadFlows(8, 8),
	}
}

// TestTelemetryMatchesNetFlowProfile is the closed-loop feedback contract:
// the telemetry collector observes the identical packet-group stream at the
// identical hot-path sites as the NetFlow side-channel, so ToProfile must be
// numerically indistinguishable from Summarize — on any workload, not just a
// stationary one. core.RunDynamic's telemetry-fed repartitioning relies on
// this.
func TestTelemetryMatchesNetFlowProfile(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"blast", telConfig()},
		{"tcp", func() Config {
			c := telConfig()
			c.Transport = TCPSlowStart
			return c
		}()},
		{"buffered-drops", func() Config {
			c := telConfig()
			c.BufferBytes = 32 << 10
			return c
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Profile = true
			tel := telemetry.New()
			res, err := Run(tc.cfg, WithTelemetry(tel))
			if err != nil {
				t.Fatal(err)
			}
			want := res.NetFlow.Summarize()
			got := tel.ToProfile()
			if !reflect.DeepEqual(got.NodePackets, want.NodePackets) {
				t.Errorf("NodePackets:\n tel %v\n nf  %v", got.NodePackets, want.NodePackets)
			}
			if !reflect.DeepEqual(got.LinkPackets, want.LinkPackets) {
				t.Errorf("LinkPackets:\n tel %v\n nf  %v", got.LinkPackets, want.LinkPackets)
			}
			if !reflect.DeepEqual(got.NodeSeries, want.NodeSeries) {
				t.Errorf("NodeSeries:\n tel %v\n nf  %v", got.NodeSeries, want.NodeSeries)
			}
		})
	}
}

// TestTelemetryFaultedRunMatchesNetFlow pins the checkpoint/rollback
// integration: after a crash recovery replays windows, telemetry must agree
// with the NetFlow collector (both roll back at the same barriers) — no
// double-counted replay traffic.
func TestTelemetryFaultedRunMatchesNetFlow(t *testing.T) {
	cfg := faultedConfig()
	cfg.Profile = true
	tel := telemetry.New()
	res, err := Run(cfg, WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil || res.Recovery.Failures == 0 {
		t.Fatal("fault schedule did not crash")
	}
	want := res.NetFlow.Summarize()
	got := tel.ToProfile()
	if !reflect.DeepEqual(got.NodePackets, want.NodePackets) {
		t.Errorf("NodePackets after recovery:\n tel %v\n nf  %v", got.NodePackets, want.NodePackets)
	}
	if !reflect.DeepEqual(got.LinkPackets, want.LinkPackets) {
		t.Errorf("LinkPackets after recovery:\n tel %v\n nf  %v", got.LinkPackets, want.LinkPackets)
	}
	if !reflect.DeepEqual(got.NodeSeries, want.NodeSeries) {
		t.Error("NodeSeries diverged after recovery")
	}
}

// TestTelemetrySnapshotConsistency cross-checks the snapshot against the
// emulator's own independently-maintained result counters.
func TestTelemetrySnapshotConsistency(t *testing.T) {
	cfg := telConfig()
	cfg.BufferBytes = 16 << 10 // small enough that the blast below tail-drops
	cfg.Workload = traffic.Workload{Duration: 8}
	for i := 0; i < 4; i++ {
		cfg.Workload.Flows = append(cfg.Workload.Flows, traffic.Flow{
			ID: i, Src: 0, Dst: 3, Start: 0, Bytes: 256 << 10, Tag: "t",
		})
	}
	tel := telemetry.New()
	res, err := Run(cfg, WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Telemetry
	if s == nil {
		t.Fatal("Result.Telemetry missing")
	}
	if !reflect.DeepEqual(s.LinkTxBytes, res.LinkBytes) {
		t.Errorf("LinkTxBytes %v != Result.LinkBytes %v", s.LinkTxBytes, res.LinkBytes)
	}
	if s.DroppedPackets != res.DroppedPackets {
		t.Errorf("drops %d != Result %d", s.DroppedPackets, res.DroppedPackets)
	}
	if res.DroppedPackets == 0 {
		t.Error("buffered run dropped nothing; drop accounting untested")
	}
	var completed int64
	for _, fct := range res.FlowFCTs {
		if fct >= 0 {
			completed++
		}
	}
	if s.FlowsCompleted != completed {
		t.Errorf("flows completed %d != %d", s.FlowsCompleted, completed)
	}
	for lp, load := range res.EngineLoads {
		if float64(s.EngineCharges[lp]) != load {
			t.Errorf("engine %d charges %d != load %g", lp, s.EngineCharges[lp], load)
		}
	}
	if s.Imbalance != res.Imbalance {
		t.Errorf("imbalance %g != %g", s.Imbalance, res.Imbalance)
	}
	// Nodes 0,1 on engine 0 and 2,3 on engine 1: every flow crosses, so the
	// matrix must have off-diagonal traffic, and the full matrix must cover
	// every transmitted byte.
	if s.CrossEngineBytes == 0 {
		t.Error("cut assignment produced no cross-engine bytes")
	}
	var linkTotal int64
	for _, b := range s.LinkTxBytes {
		linkTotal += b
	}
	if s.TotalBytes != linkTotal {
		t.Errorf("matrix total %d != link total %d", s.TotalBytes, linkTotal)
	}
	if s.Windows != res.Kernel.Windows {
		t.Errorf("windows %d != kernel %d", s.Windows, res.Kernel.Windows)
	}
	if len(s.Timeline) == 0 {
		t.Error("empty timeline")
	}
	var cross int64
	for _, p := range s.Timeline {
		cross += p.CrossEngineBytes
	}
	if cross != s.CrossEngineBytes {
		t.Errorf("timeline cross bytes %d != snapshot %d", cross, s.CrossEngineBytes)
	}
	if s.QueueDelay.Count == 0 {
		t.Error("no queue-delay observations")
	}
	if s.FCT.Count != completed {
		t.Errorf("FCT histogram count %d != completed %d", s.FCT.Count, completed)
	}
}

// TestTelemetryDeterministic: identical runs publish byte-identical /trafficmatrix JSON and /metrics bodies,
// the same contract as the obs trace.
func TestTelemetryDeterministic(t *testing.T) {
	render := func() (string, string) {
		tel := telemetry.New()
		if _, err := Run(telConfig(), WithTelemetry(tel)); err != nil {
			t.Fatal(err)
		}
		var m bytes.Buffer
		if err := telemetry.WriteMatrixJSON(&m, tel.Snapshot()); err != nil {
			t.Fatal(err)
		}
		var e strings.Builder
		if err := tel.Metrics().WriteExposition(&e); err != nil {
			t.Fatal(err)
		}
		return m.String(), e.String()
	}
	m1, e1 := render()
	m2, e2 := render()
	if m1 != m2 {
		t.Error("trafficmatrix JSON differs between identical runs")
	}
	if e1 != e2 {
		t.Error("Prometheus exposition differs between identical runs")
	}
	if !strings.Contains(e1, "massf_traffic_matrix_bytes_total") {
		t.Error("exposition missing traffic matrix family")
	}
}

// TestTelemetryCollectorReuse: one collector across two runs reports only the
// latest run (the live massf endpoint reuses one mount).
func TestTelemetryCollectorReuse(t *testing.T) {
	tel := telemetry.New()
	if _, err := Run(telConfig(), WithTelemetry(tel)); err != nil {
		t.Fatal(err)
	}
	first := tel.Snapshot()
	if _, err := Run(telConfig(), WithTelemetry(tel)); err != nil {
		t.Fatal(err)
	}
	second := tel.Snapshot()
	if !reflect.DeepEqual(first.MatrixBytes, second.MatrixBytes) {
		t.Error("identical reruns differ")
	}
	if second.TotalBytes != first.TotalBytes {
		t.Errorf("reuse accumulated across runs: %d vs %d", second.TotalBytes, first.TotalBytes)
	}
}

// TestTelemetryDisabledZeroAddedAllocs is the disabled-path cost gate: a run
// with telemetry disabled must have the exact allocation profile of a run
// with no telemetry option at all — the per-packet hot path sees only a nil
// check. (The collector's own observe methods are AllocsPerRun(0)-gated in
// internal/telemetry; this pins that emu adds nothing outside the guards.)
func TestTelemetryDisabledZeroAddedAllocs(t *testing.T) {
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
		if _, err := Run(cfg, WithTelemetry(nil)); err != nil {
			t.Fatal(err)
		}
	})
	if off > base {
		t.Errorf("disabled telemetry allocates more than the bare path: %.1f > %.1f per run", off, base)
	}
}

func benchConfig() Config {
	cfg := telConfig()
	cfg.Workload = spreadFlows(64, 8)
	return cfg
}

// BenchmarkEmuTelemetryOff is the CI smoke baseline (BENCH_telemetry.json):
// the telemetry-disabled emulator must not regress against the seed path.
func BenchmarkEmuTelemetryOff(b *testing.B) {
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

// BenchmarkEmuTelemetryOn measures the enabled-path overhead: full matrix,
// link, histogram and series accounting plus measurement-window publication.
func BenchmarkEmuTelemetryOn(b *testing.B) {
	cfg := benchConfig()
	tel := telemetry.New()
	if _, err := Run(cfg, WithTelemetry(tel)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, WithTelemetry(tel)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTelemetryOverheadGate is the enabled-path cost gate the flat-counter
// overhaul targets: telemetry-on must cost at most 1.5x telemetry-off ns/op
// on the 4-node line benchmark (it was 2.9x when the registry republished
// every sync window). On a loaded host the run-to-run swing exceeds the
// on/off difference, so the gate interleaves off/on measurement rounds —
// drift inflates both halves of a round equally — and takes the median of
// the per-round ratios.
func TestTelemetryOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full emulation benchmarks")
	}
	cfg := benchConfig()
	tel := telemetry.New()
	if _, err := Run(cfg, WithTelemetry(tel)); err != nil {
		t.Fatal(err)
	}
	measure := func(withTel bool) int64 {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if withTel {
					_, err = Run(cfg, WithTelemetry(tel))
				} else {
					_, err = Run(cfg)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp()
	}
	const rounds = 3
	ratios := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		off := measure(false)
		on := measure(true)
		ratios = append(ratios, float64(on)/float64(off))
		t.Logf("round %d: off %d ns/op, on %d ns/op, ratio %.2fx", i, off, on, float64(on)/float64(off))
	}
	sort.Float64s(ratios)
	if median := ratios[rounds/2]; median > 1.5 {
		t.Errorf("telemetry-on overhead %.2fx > 1.5x (median of %d interleaved rounds: %v)", median, rounds, ratios)
	}
}
