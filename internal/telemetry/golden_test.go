package telemetry_test

// Golden-file tests for the two HTTP surfaces: the Prometheus text
// exposition and the /trafficmatrix JSON. An external test package so a real
// emulation (internal/emu) can drive the collector without an import cycle.
//
// The rendered bytes are part of the determinism contract — identical runs
// must publish byte-identical documents, and the documents themselves are
// pinned against testdata/*.golden. Regenerate with
//
//	go test ./internal/telemetry -run Golden -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/emu"
	"repro/internal/netgraph"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenRun drives a fixed two-engine emulation: a 4-node line network with
// staggered flows in both directions, long enough to exercise drops, several
// measurement windows, and off-diagonal matrix entries.
func goldenRun(t *testing.T) *telemetry.Collector {
	t.Helper()
	nw := netgraph.New("golden-line")
	h0 := nw.AddHost("h0", 1)
	r0 := nw.AddRouter("r0", 1)
	r1 := nw.AddRouter("r1", 1)
	h1 := nw.AddHost("h1", 1)
	nw.AddLink(h0, r0, 100e6, 1e-3)
	nw.AddLink(r0, r1, 1e9, 1e-3)
	nw.AddLink(r1, h1, 100e6, 1e-3)

	w := traffic.Workload{Duration: 8}
	for i := 0; i < 6; i++ {
		src, dst := 0, 3
		if i%2 == 1 {
			src, dst = 3, 0
		}
		w.Flows = append(w.Flows, traffic.Flow{
			ID: i, Src: src, Dst: dst, Start: 0.5 * float64(i), Bytes: 50 << 10, Tag: "g",
		})
	}

	tel := telemetry.New()
	if _, err := emu.Run(emu.Config{
		Network:    nw,
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   w,
	}, emu.WithTelemetry(tel)); err != nil {
		t.Fatal(err)
	}
	return tel
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file (rerun with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

func TestGoldenExposition(t *testing.T) {
	render := func() []byte {
		var b bytes.Buffer
		if err := goldenRun(t).Metrics().WriteExposition(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	first := render()
	if !bytes.Equal(first, render()) {
		t.Fatal("identical runs rendered different expositions")
	}
	checkGolden(t, "metrics.golden", first)
}

func TestGoldenTrafficMatrixJSON(t *testing.T) {
	render := func() []byte {
		var b bytes.Buffer
		if err := telemetry.WriteMatrixJSON(&b, goldenRun(t).Snapshot()); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	first := render()
	if !bytes.Equal(first, render()) {
		t.Fatal("identical runs rendered different matrix JSON")
	}
	checkGolden(t, "trafficmatrix.golden", first)
}
