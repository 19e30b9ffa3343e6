// Kernel hot-path benchmark suite and its drift gate (BENCH_kernel.json).
//
// The benchmarks time complete emulation runs — prepare + kernel + result
// assembly — on the paper topologies under a fixed TOP partition, plus a
// dense-window stress case (a low-latency chain whose lookahead forces
// thousands of barriers), with all precomputation (topology, workload,
// partition, routing) hoisted outside the timed loop. They are the regression
// harness for the batched kernel hot path: per-window pooled outbox batches,
// the structure-of-arrays event heap, and flat-counter telemetry.
//
// BENCH_kernel.json records two measurement sets: "pre" (the per-event path
// before the batching overhaul, kept as the fixed reference the acceptance
// ratios are computed against) and "baseline" (the current code). The drift
// gate TestKernelBaseline re-measures the deterministic quantities — windows,
// events, allocs/op — and fails on drift, and checks
// the committed pre/post ns/op ratios still honor the acceptance criteria
// (dense-window ≥1.5× faster, Brite-large allocs/op down ≥30%).
//
// Regenerate after an intentional hot-path change with:
//
//	KERNELBENCH_WRITE=1 go test -run TestKernelBaseline -timeout 20m
package repro

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/netgraph"
	"repro/internal/traffic"
)

const kernelbenchFile = "BENCH_kernel.json"

type kernelbenchEntry struct {
	Name string `json:"name"`
	// Windows and Events are exact run invariants (the byte-identical
	// contract).
	Windows int64 `json:"windows"`
	Events  int64 `json:"events"`
	// NsPerOp is informational (machine-dependent); AllocsPerOp is gated
	// within 2%.
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

type kernelbenchBaseline struct {
	Suite       string `json:"suite"`
	Description string `json:"description"`
	Date        string `json:"date"`
	CPU         string `json:"cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs,omitempty"`
	Benchtime   string `json:"benchtime"`
	// Pre is the frozen pre-overhaul reference (the per-event outbox path);
	// Baseline is the current batched path. The acceptance ratios compare
	// the two as measured on the same machine at the same benchtime.
	Pre      []kernelbenchEntry `json:"pre"`
	Baseline []kernelbenchEntry `json:"baseline"`
}

// kernelCase is one benchmark scenario. Paper topologies run the ScaLapack
// suite workload under a TOP partition; Dense is the synthetic stress case.
type kernelCase struct {
	name     string
	topology string // "" for the dense stress case
}

func kernelCases() []kernelCase {
	return []kernelCase{
		{"Campus-seq", "Campus"},
		{"TeraGrid-seq", "TeraGrid"},
		{"Brite-large-seq", "Brite-large"},
		{"Dense-seq", ""},
	}
}

// kernelTopoConfig assembles the fully-precomputed emulation config for one
// paper topology: generated network, merged ScaLapack+HTTP workload, TOP
// partition and memoized routing all resolved before the timer starts.
func kernelTopoConfig(tb testing.TB, topology string) emu.Config {
	tb.Helper()
	sc, err := experiments.ScenarioFor(experiments.Config{Duration: 30, Seed: 42}, topology, "ScaLapack")
	if err != nil {
		tb.Fatal(err)
	}
	part, _, err := sc.Partition(context.Background(), mapping.Top)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := sc.Workload()
	if err != nil {
		tb.Fatal(err)
	}
	routes, err := sc.Routes()
	if err != nil {
		tb.Fatal(err)
	}
	return emu.Config{
		Network:    sc.Network,
		Routes:     routes,
		Assignment: part,
		NumEngines: sc.Engines,
		Workload:   w,
	}
}

// kernelDenseConfig is the dense-window stress case: an 8-router chain with
// 200 µs links, cut in the middle, so the lookahead is 200 µs and a 4-virtual-
// second run executes thousands of windows. Staggered small flows keep every
// window non-empty — the per-window barrier cost (outbox merge, observer,
// telemetry commit) dominates, which is exactly what the batching overhaul
// targets.
func kernelDenseConfig(tb testing.TB) emu.Config {
	tb.Helper()
	nw := netgraph.New("dense")
	const routers = 8
	ids := make([]int, 0, routers+2)
	ids = append(ids, nw.AddHost("h0", 1))
	for i := 0; i < routers; i++ {
		ids = append(ids, nw.AddRouter(fmt.Sprintf("r%d", i), 1))
	}
	ids = append(ids, nw.AddHost("h1", 1))
	for i := 0; i+1 < len(ids); i++ {
		nw.AddLink(ids[i], ids[i+1], 1e9, 200e-6)
	}
	w := traffic.Workload{Duration: 4}
	for i := 0; i < 64; i++ {
		src, dst := ids[0], ids[len(ids)-1]
		if i%2 == 1 {
			src, dst = dst, src
		}
		w.Flows = append(w.Flows, traffic.Flow{
			ID: i, Src: src, Dst: dst,
			Start: 0.05 * float64(i), Bytes: 96 << 10, Tag: "dense",
		})
	}
	assignment := make([]int, len(ids))
	for i := range assignment {
		if i > len(ids)/2 {
			assignment[i] = 1
		}
	}
	return emu.Config{
		Network:    nw,
		Assignment: assignment,
		NumEngines: 2,
		Workload:   w,
		ChunkBytes: 16 << 10,
	}
}

func kernelConfigFor(tb testing.TB, c kernelCase) emu.Config {
	if c.topology == "" {
		return kernelDenseConfig(tb)
	}
	return kernelTopoConfig(tb, c.topology)
}

// BenchmarkKernel times one full emulation per iteration for every case; the
// committed BENCH_kernel.json numbers come from -benchtime 20x runs of this
// benchmark (via TestKernelBaseline's writer).
func BenchmarkKernel(b *testing.B) {
	for _, c := range kernelCases() {
		b.Run(c.name, func(b *testing.B) {
			cfg := kernelConfigFor(b, c)
			if _, err := emu.Run(cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := emu.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// kernelbenchMeasure runs one case under the testing.Benchmark harness and
// extracts the entry: run invariants from a direct run, cost numbers from the
// best of three benchmark results (a loaded host inflates individual rounds;
// the minimum is the closest observable to the true cost).
func kernelbenchMeasure(tb testing.TB, c kernelCase) kernelbenchEntry {
	tb.Helper()
	cfg := kernelConfigFor(tb, c)
	res, err := emu.Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var events int64
	for _, e := range res.Kernel.Events {
		events += e
	}
	entry := kernelbenchEntry{
		Name:    c.name,
		Windows: res.Kernel.Windows,
		Events:  events,
	}
	for round := 0; round < 3; round++ {
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := emu.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		if entry.NsPerOp == 0 || br.NsPerOp() < entry.NsPerOp {
			entry.NsPerOp = br.NsPerOp()
			entry.BytesPerOp = br.AllocedBytesPerOp()
			entry.AllocsPerOp = br.AllocsPerOp()
		}
	}
	return entry
}

func kernelbenchByName(es []kernelbenchEntry) map[string]kernelbenchEntry {
	m := make(map[string]kernelbenchEntry, len(es))
	for _, e := range es {
		m[e.Name] = e
	}
	return m
}

// hostCPU returns the host's CPU model name, "unknown" where /proc/cpuinfo
// does not name one.
func hostCPU() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// TestKernelBaseline is the kernel-bench drift gate. It re-measures every
// case and checks the deterministic quantities (windows and events exactly,
// allocs/op within 2%), allows
// the committed timing numbers to differ (machines differ), and re-validates
// the committed pre→baseline acceptance ratios: the dense-window stress case
// must be ≥1.5× faster than the pre-overhaul path and Brite-large must
// allocate ≥30% less.
func TestKernelBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full emulation benchmarks")
	}
	write := os.Getenv("KERNELBENCH_WRITE") != ""
	var got []kernelbenchEntry
	for _, c := range kernelCases() {
		got = append(got, kernelbenchMeasure(t, c))
	}

	if write {
		data, err := os.ReadFile(kernelbenchFile)
		var b kernelbenchBaseline
		if err == nil {
			if err := json.Unmarshal(data, &b); err != nil {
				t.Fatal(err)
			}
		}
		if len(b.Pre) == 0 {
			// First write: the current code *is* the pre-overhaul reference.
			b.Pre = got
		}
		b.Suite = "emu-kernel"
		b.Description = "Kernel hot-path cost per full emulation run (TOP partition, ScaLapack+HTTP workload on the paper topologies; synthetic dense-window chain): ns/op, bytes/op, allocs/op plus the deterministic windows/events invariants. 'pre' freezes the per-event outbox path before the batching overhaul; 'baseline' is the current pooled-batch/SoA-heap path measured on the same machine. Gates: windows/events exact on every case, allocs/op within 2% on every case, dense-window pre/baseline ns ratio >= 1.5, Brite-large allocs reduction >= 30%."
		b.Date = time.Now().Format("2006-01-02")
		b.CPU = hostCPU()
		b.GOMAXPROCS = runtime.GOMAXPROCS(0)
		b.Benchtime = "auto (testing.Benchmark, best of 3)"
		b.Baseline = got
		out, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kernelbenchFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", kernelbenchFile, len(got))
		return
	}

	data, err := os.ReadFile(kernelbenchFile)
	if err != nil {
		t.Fatalf("missing committed baseline: %v (regenerate with KERNELBENCH_WRITE=1)", err)
	}
	var want kernelbenchBaseline
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantBy, gotBy := kernelbenchByName(want.Baseline), kernelbenchByName(got)
	for _, c := range kernelCases() {
		w, ok := wantBy[c.name]
		if !ok {
			t.Errorf("%s: not in committed baseline (regenerate with KERNELBENCH_WRITE=1)", c.name)
			continue
		}
		g := gotBy[c.name]
		if g.Windows != w.Windows || g.Events != w.Events {
			t.Errorf("%s: run-invariant drift — baseline %d windows/%d events, current %d/%d",
				c.name, w.Windows, w.Events, g.Windows, g.Events)
		}
		// Allocation counts are deterministic modulo tiny runtime variation;
		// allow 2% before calling it drift.
		lo, hi := w.AllocsPerOp*98/100, w.AllocsPerOp*102/100
		if g.AllocsPerOp < lo || g.AllocsPerOp > hi {
			t.Errorf("%s: allocs/op drift — baseline %d, current %d (regenerate with KERNELBENCH_WRITE=1 if intentional)",
				c.name, w.AllocsPerOp, g.AllocsPerOp)
		}
	}

	// The committed pre→baseline ratios are the overhaul's acceptance gates.
	preBy := kernelbenchByName(want.Pre)
	if len(preBy) == 0 {
		t.Fatal("baseline file has no pre-overhaul reference measurements")
	}
	for _, name := range []string{"Dense-seq"} {
		pre, post := preBy[name], wantBy[name]
		if pre.NsPerOp == 0 || post.NsPerOp == 0 {
			t.Errorf("%s: missing pre/post ns measurements", name)
			continue
		}
		if ratio := float64(pre.NsPerOp) / float64(post.NsPerOp); ratio < 1.5 {
			t.Errorf("%s: dense-window speedup %.2fx < 1.5x (pre %d ns/op, baseline %d ns/op)",
				name, ratio, pre.NsPerOp, post.NsPerOp)
		}
	}
	for _, name := range []string{"Brite-large-seq"} {
		pre, post := preBy[name], wantBy[name]
		if pre.AllocsPerOp == 0 {
			t.Errorf("%s: missing pre alloc measurement", name)
			continue
		}
		if red := 1 - float64(post.AllocsPerOp)/float64(pre.AllocsPerOp); red < 0.30 {
			t.Errorf("%s: allocs/op reduction %.0f%% < 30%% (pre %d, baseline %d)",
				name, 100*red, pre.AllocsPerOp, post.AllocsPerOp)
		}
	}
}
