package emu

import (
	"testing"

	"repro/internal/traffic"
)

func TestTCPSlowStartSameTotalLoad(t *testing.T) {
	// TCP pacing changes when packets move, not how many: total kernel
	// events must equal the blast transport's.
	nw := lineNet()
	w := oneFlow(1<<20, 0) // 1 MiB = 16 chunks
	run := func(mode TransportMode) *Result {
		res, err := Run(Config{
			Network: nw, Assignment: []int{0, 0, 1, 1}, NumEngines: 2,
			Workload: w, Transport: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	blast := run(Blast)
	tcp := run(TCPSlowStart)
	if blast.Kernel.TotalCharges() != tcp.Kernel.TotalCharges() {
		t.Errorf("charges differ: blast %d vs tcp %d",
			blast.Kernel.TotalCharges(), tcp.Kernel.TotalCharges())
	}
	// TCP stretches the transfer across RTT rounds: its virtual span must
	// exceed blast's.
	if tcp.Kernel.VirtualEnd <= blast.Kernel.VirtualEnd {
		t.Errorf("TCP VirtualEnd %v <= blast %v (no pacing visible)",
			tcp.Kernel.VirtualEnd, blast.Kernel.VirtualEnd)
	}
}

func TestTCPSlowStartWindowGrowth(t *testing.T) {
	// With 7 chunks the rounds are 1, 2, 4 — three rounds, each one RTT
	// apart. The flow start plus round releases appear as distinct event
	// times at the source engine.
	nw := lineNet()
	bytes := int64(7 * (64 << 10))
	res, err := Run(Config{
		Network: nw, Assignment: []int{0, 0, 0, 0}, NumEngines: 1,
		Workload: traffic.Workload{
			Flows:    []traffic.Flow{{ID: 0, Src: 0, Dst: 3, Start: 0, Bytes: bytes}},
			Duration: 10,
		},
		Transport: TCPSlowStart,
	})
	if err != nil {
		t.Fatal(err)
	}
	// RTT = 2*3ms = 6ms; last round at 2 RTT = 12ms, plus transfer time.
	if res.Kernel.VirtualEnd < 0.012 {
		t.Errorf("VirtualEnd %v too small for 3 slow-start rounds", res.Kernel.VirtualEnd)
	}
}

func TestTCPSlowStartDeterministic(t *testing.T) {
	nw := lineNet()
	w := oneFlow(512<<10, 0)
	run := func() *Result {
		res, err := Run(Config{
			Network: nw, Assignment: []int{0, 0, 1, 1}, NumEngines: 2,
			Workload: w, Transport: TCPSlowStart,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Kernel.TotalCharges() != b.Kernel.TotalCharges() ||
		a.Kernel.Windows != b.Kernel.Windows {
		t.Error("TCP transport nondeterministic across runs")
	}
}
