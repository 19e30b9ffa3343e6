// Partition benchmark and its quality gate (BENCH_partition.json at the
// repository root).
//
// Every paper topology × approach is timed as the mapping step alone —
// mapping.Map on an input assembled once outside the timer, PROFILE's
// profiling pre-run included in that setup — and the gate freezes the
// result's quality on the approach's own partition instance: the edge cut
// under the weights the approach scores candidates with, and the worst
// per-constraint balance ratio. Both are exact under the partitioner's
// determinism contract and gated exactly. ns/op and allocs/op are on record
// with the machine that measured them, never gated.
//
// Regenerate after an intentional partitioner change with:
//
//	PARTBENCH_WRITE=1 go test -run TestPartitionBaseline -count=1 ./internal/mapping
package mapping_test

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/partition"
	"repro/internal/topogen"
)

const partbenchFile = "../../BENCH_partition.json"

type partbenchEntry struct {
	Name string `json:"name"`
	// Exact quality of the mapping, gated.
	EdgeCut      int64   `json:"edge_cut"`
	MaxImbalance float64 `json:"max_imbalance"`
	// On record only (machine-dependent).
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	CPU         string `json:"cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
}

type partbenchBaseline struct {
	Suite       string           `json:"suite"`
	Description string           `json:"description"`
	Date        string           `json:"date"`
	Entries     []partbenchEntry `json:"entries"`
}

type partbenchCase struct {
	name string
	a    mapping.Approach
	in   mapping.Input
}

// partbenchCases builds the nine Table-1 mapping inputs (ScaLapack, seed 42,
// 20 virtual seconds), assembled the way core.Scenario.Partition does.
func partbenchCases(tb testing.TB) []partbenchCase {
	tb.Helper()
	var cases []partbenchCase
	for _, spec := range topogen.Table1() {
		sc, err := experiments.ScenarioFor(experiments.Config{Duration: 20, Seed: 42}, spec.Name, "ScaLapack")
		if err != nil {
			tb.Fatal(err)
		}
		for _, a := range mapping.Approaches() {
			in, err := sc.MappingInput()
			if err != nil {
				tb.Fatal(err)
			}
			switch a {
			case mapping.Place:
				in.Background = sc.Background.Predict(sc.Network)
				in.AppHosts = sc.AppPlacement()
			case mapping.Profile:
				_, prof, err := sc.Partition(context.Background(), a)
				if err != nil {
					tb.Fatal(err)
				}
				in.Summary = prof.NetFlow.Summarize()
			}
			cases = append(cases, partbenchCase{name: spec.Name + "/" + string(a), a: a, in: in})
		}
	}
	return cases
}

func partbenchQuality(tb testing.TB, c partbenchCase) partbenchEntry {
	tb.Helper()
	part, err := mapping.Map(c.a, c.in)
	if err != nil {
		tb.Fatalf("%s: %v", c.name, err)
	}
	g, cutWeights, err := mapping.PartitionInstance(c.a, c.in)
	if err != nil {
		tb.Fatalf("%s: %v", c.name, err)
	}
	e := partbenchEntry{Name: c.name, EdgeCut: partition.CutWeightOf(g, cutWeights, part)}
	for _, b := range partition.Balance(g, part, c.in.K) {
		e.MaxImbalance = max(e.MaxImbalance, b)
	}
	return e
}

func cpuModel() string {
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

// benchMap times mapping.Map on one cell's input.
func benchMap(c partbenchCase) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mapping.Map(c.a, c.in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPartition times the mapping step of every Table-1 cell.
func BenchmarkPartition(b *testing.B) {
	for _, c := range partbenchCases(b) {
		b.Run(c.name, benchMap(c))
	}
}

// TestPartitionBaseline is the partition quality gate: edge cut and worst
// balance ratio of every Table-1 mapping must equal BENCH_partition.json.
func TestPartitionBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("partitions all nine Table-1 cells")
	}
	write := os.Getenv("PARTBENCH_WRITE") != ""
	var got []partbenchEntry
	for _, c := range partbenchCases(t) {
		e := partbenchQuality(t, c)
		if write {
			br := testing.Benchmark(benchMap(c))
			e.NsPerOp, e.AllocsPerOp = br.NsPerOp(), br.AllocsPerOp()
			e.CPU, e.GOMAXPROCS = cpuModel(), runtime.GOMAXPROCS(0)
		}
		got = append(got, e)
	}

	if write {
		b := partbenchBaseline{
			Suite:       "partition",
			Description: "Mapping step (mapping.Map) of every Table-1 cell, ScaLapack, seed 42, 20 virtual seconds: edge cut under the approach's candidate-scoring weights and worst per-constraint balance ratio on the approach's partition instance, gated exactly; ns/op and allocs/op on record with the measuring CPU and GOMAXPROCS, never gated.",
			Date:        "2026-10-17",
			Entries:     got,
		}
		out, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(partbenchFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", partbenchFile, len(got))
		return
	}

	data, err := os.ReadFile(partbenchFile)
	if err != nil {
		t.Fatalf("missing committed baseline: %v (regenerate with PARTBENCH_WRITE=1)", err)
	}
	var want partbenchBaseline
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantBy := make(map[string]partbenchEntry, len(want.Entries))
	for _, e := range want.Entries {
		wantBy[e.Name] = e
	}
	for _, g := range got {
		w, ok := wantBy[g.Name]
		if !ok {
			t.Errorf("%s: not in committed baseline (regenerate with PARTBENCH_WRITE=1)", g.Name)
			continue
		}
		if g.EdgeCut != w.EdgeCut || g.MaxImbalance != w.MaxImbalance {
			t.Errorf("%s: quality drift — baseline cut %d imbalance %v, current cut %d imbalance %v (regenerate with PARTBENCH_WRITE=1 if intentional)",
				g.Name, w.EdgeCut, w.MaxImbalance, g.EdgeCut, g.MaxImbalance)
		}
	}
}
