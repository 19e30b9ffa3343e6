package emu

import (
	"math"
	"testing"

	"repro/internal/netgraph"
	"repro/internal/topogen"
	"repro/internal/traffic"
)

// lineNet builds h0 - r0 - r1 - h1 with 1 ms links.
func lineNet() *netgraph.Network {
	nw := netgraph.New("line")
	h0 := nw.AddHost("h0", 1)
	r0 := nw.AddRouter("r0", 1)
	r1 := nw.AddRouter("r1", 1)
	h1 := nw.AddHost("h1", 1)
	nw.AddLink(h0, r0, 100e6, 1e-3)
	nw.AddLink(r0, r1, 1e9, 1e-3)
	nw.AddLink(r1, h1, 100e6, 1e-3)
	return nw
}

func oneFlow(bytes int64, start float64) traffic.Workload {
	return traffic.Workload{
		Flows:    []traffic.Flow{{ID: 0, Src: 0, Dst: 3, Start: start, Bytes: bytes, Tag: "t"}},
		Duration: start + 10,
	}
}

func TestValidation(t *testing.T) {
	nw := lineNet()
	base := Config{Network: nw, Assignment: []int{0, 0, 1, 1}, NumEngines: 2, Workload: oneFlow(1000, 0)}
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	bad := base
	bad.Assignment = []int{0, 0}
	if _, err := Run(bad); err == nil {
		t.Error("short assignment accepted")
	}
	bad = base
	bad.Assignment = []int{0, 0, 5, 1}
	if _, err := Run(bad); err == nil {
		t.Error("out-of-range engine accepted")
	}
	bad = base
	bad.NumEngines = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero engines accepted")
	}
}

func TestSingleFlowCharges(t *testing.T) {
	nw := lineNet()
	// 3000 bytes at MTU 1500 = 2 packets; path has 4 nodes -> 8 kernel events.
	res, err := Run(Config{
		Network:    nw,
		Assignment: []int{0, 0, 0, 0},
		NumEngines: 1,
		Workload:   oneFlow(3000, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Kernel.TotalCharges(); got != 8 {
		t.Errorf("total charges = %d, want 8", got)
	}
	if res.Imbalance != 0 {
		t.Errorf("single-engine imbalance = %v, want 0", res.Imbalance)
	}
}

func TestChargesSplitAcrossEngines(t *testing.T) {
	nw := lineNet()
	// Engine 0 owns h0,r0 (2 nodes), engine 1 owns r1,h1.
	res, err := Run(Config{
		Network:    nw,
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   oneFlow(1500, 0), // 1 packet
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EngineLoads[0] != 2 || res.EngineLoads[1] != 2 {
		t.Errorf("EngineLoads = %v, want [2 2]", res.EngineLoads)
	}
	if res.RemoteEvents == 0 {
		t.Error("no remote events despite a cut path")
	}
	if res.Imbalance != 0 {
		t.Errorf("imbalance = %v, want 0 for symmetric split", res.Imbalance)
	}
}

func TestLookaheadFromAssignment(t *testing.T) {
	nw := lineNet()
	// Cut only the middle link (1 ms).
	if got := Lookahead(nw, []int{0, 0, 1, 1}, 0); got != 1e-3 {
		t.Errorf("Lookahead = %v, want 1e-3", got)
	}
	// No cut: falls back to max latency.
	if got := Lookahead(nw, []int{0, 0, 0, 0}, 0); got != 1e-3 {
		t.Errorf("single-engine Lookahead = %v, want 1e-3 (max latency)", got)
	}
	// The floor must never override a real cut latency.
	if got := Lookahead(nw, []int{0, 1, 1, 1}, 0.5); got != 1e-3 {
		t.Errorf("floored Lookahead = %v, want 1e-3", got)
	}
}

func TestFlowDeliveryTiming(t *testing.T) {
	// One 1500-byte packet over three links: serialization on 100 Mb/s is
	// 0.12 ms, on 1 Gb/s 0.012 ms; total latency 3 ms. Virtual end must be
	// at least start + 3 ms + serializations.
	nw := lineNet()
	res, err := Run(Config{
		Network:    nw,
		Assignment: []int{0, 0, 0, 0},
		NumEngines: 1,
		Workload:   oneFlow(1500, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	wantMin := 3e-3 + 2*0.12e-3 + 0.012e-3
	if res.Kernel.VirtualEnd < wantMin {
		t.Errorf("VirtualEnd = %v, want >= %v", res.Kernel.VirtualEnd, wantMin)
	}
}

func TestFIFOQueueingSerializes(t *testing.T) {
	// Two large flows sharing the first link: the second must queue behind
	// the first, so the run's virtual span exceeds one flow's transfer time.
	nw := lineNet()
	w := traffic.Workload{
		Flows: []traffic.Flow{
			{ID: 0, Src: 0, Dst: 3, Start: 0, Bytes: 10 << 20, Tag: "a"},
			{ID: 1, Src: 0, Dst: 3, Start: 0, Bytes: 10 << 20, Tag: "b"},
		},
		Duration: 10,
	}
	res, err := Run(Config{Network: nw, Assignment: []int{0, 0, 0, 0}, NumEngines: 1, Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	// 20 MiB over 100 Mb/s ≈ 1.68 s serialization on the shared access link.
	if res.Kernel.VirtualEnd < 1.6 {
		t.Errorf("VirtualEnd = %v, want >= 1.6 (FIFO serialization)", res.Kernel.VirtualEnd)
	}
}

func TestProfileCollectsNetFlow(t *testing.T) {
	nw := lineNet()
	res, err := Run(Config{
		Network:    nw,
		Assignment: []int{0, 0, 1, 1},
		NumEngines: 2,
		Workload:   oneFlow(3000, 1),
		Profile:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NetFlow == nil {
		t.Fatal("no collector despite Profile")
	}
	s := res.NetFlow.Summarize()
	var nodeTotal int64
	for _, p := range s.NodePackets {
		nodeTotal += p
	}
	if nodeTotal != res.Kernel.TotalCharges() {
		t.Errorf("netflow packets %d != kernel charges %d", nodeTotal, res.Kernel.TotalCharges())
	}
	// Each of the 3 links carried the flow's 2 packets.
	for lid := 0; lid < 3; lid++ {
		if s.LinkPackets[lid] != 2 {
			t.Errorf("link %d packets = %d, want 2", lid, s.LinkPackets[lid])
		}
	}
}

// TestDeterminismAcrossParallelism: two identical multi-engine Campus runs
// agree on every load counter.
func TestDeterminismAcrossParallelism(t *testing.T) {
	nw := topogen.Campus()
	spec := traffic.DefaultHTTP(20, 3)
	w := spec.Generate(nw)
	assign := roundRobin(nw.NumNodes(), 3)
	run := func() *Result {
		res, err := Run(Config{
			Network: nw, Assignment: assign, NumEngines: 3,
			Workload: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Kernel.TotalCharges() != b.Kernel.TotalCharges() {
		t.Errorf("charges differ: %d vs %d", a.Kernel.TotalCharges(), b.Kernel.TotalCharges())
	}
	for e := range a.EngineLoads {
		if a.EngineLoads[e] != b.EngineLoads[e] {
			t.Errorf("engine %d load differs: %v vs %v", e, a.EngineLoads[e], b.EngineLoads[e])
		}
	}
	if a.Kernel.Windows != b.Kernel.Windows {
		t.Errorf("windows differ: %d vs %d", a.Kernel.Windows, b.Kernel.Windows)
	}
	if math.Abs(a.AppTime-b.AppTime) > 1e-9 {
		t.Errorf("AppTime differs: %v vs %v", a.AppTime, b.AppTime)
	}
}

func TestAppTimeAtLeastNetTime(t *testing.T) {
	nw := topogen.Campus()
	w := traffic.DefaultHTTP(30, 5).Generate(nw)
	res, err := Run(Config{
		Network: nw, Assignment: roundRobin(nw.NumNodes(), 3), NumEngines: 3, Workload: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AppTime < res.NetTime {
		t.Errorf("AppTime %v < NetTime %v", res.AppTime, res.NetTime)
	}
	// Paced time covers the virtual span (compute gaps run in real time).
	if res.AppTime < 0.5*res.Kernel.VirtualEnd {
		t.Errorf("AppTime %v implausibly below virtual span %v", res.AppTime, res.Kernel.VirtualEnd)
	}
}

func TestEngineSeriesMatchesLoads(t *testing.T) {
	nw := topogen.Campus()
	w := traffic.DefaultHTTP(20, 7).Generate(nw)
	res, err := Run(Config{
		Network: nw, Assignment: roundRobin(nw.NumNodes(), 3), NumEngines: 3, Workload: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := res.EngineSeries.TotalPerNode()
	for e := range tot {
		if math.Abs(tot[e]-res.EngineLoads[e]) > 1e-6 {
			t.Errorf("series total engine %d = %v, loads = %v", e, tot[e], res.EngineLoads[e])
		}
	}
}

func TestBetterBalanceLowersImbalance(t *testing.T) {
	// Sanity: a deliberately skewed assignment (everything on engine 0
	// except one host) must show worse imbalance than round-robin.
	nw := topogen.Campus()
	w := traffic.DefaultHTTP(20, 11).Generate(nw)
	n := nw.NumNodes()
	skewed := make([]int, n)
	skewed[n-1] = 1
	skewed[n-2] = 2
	resSkewed, err := Run(Config{Network: nw, Assignment: skewed, NumEngines: 3, Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	resRR, err := Run(Config{Network: nw, Assignment: roundRobin(n, 3), NumEngines: 3, Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	if resSkewed.Imbalance <= resRR.Imbalance {
		t.Errorf("skewed imbalance %.3f <= round-robin %.3f", resSkewed.Imbalance, resRR.Imbalance)
	}
}

func TestEndTimeTruncates(t *testing.T) {
	nw := lineNet()
	w := traffic.Workload{
		Flows: []traffic.Flow{
			{ID: 0, Src: 0, Dst: 3, Start: 0, Bytes: 1500},
			{ID: 1, Src: 0, Dst: 3, Start: 100, Bytes: 1500}, // beyond EndTime
		},
		Duration: 200,
	}
	res, err := Run(Config{
		Network: nw, Assignment: []int{0, 0, 0, 0}, NumEngines: 1,
		Workload: w, EndTime: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel.TotalCharges() != 4 {
		t.Errorf("charges = %d, want 4 (second flow truncated)", res.Kernel.TotalCharges())
	}
}

func TestUnroutableFlowRejected(t *testing.T) {
	nw := netgraph.New("x")
	h0 := nw.AddHost("h0", 1)
	r0 := nw.AddRouter("r0", 1)
	nw.AddLink(h0, r0, 1e9, 1e-3)
	h1 := nw.AddHost("h1", 1)
	r1 := nw.AddRouter("r1", 1)
	nw.AddLink(h1, r1, 1e9, 1e-3)
	w := traffic.Workload{
		Flows:    []traffic.Flow{{ID: 0, Src: h0, Dst: h1, Bytes: 100}},
		Duration: 1,
	}
	_, err := Run(Config{Network: nw, Assignment: []int{0, 0, 1, 1}, NumEngines: 2, Workload: w})
	if err == nil {
		t.Error("unroutable flow accepted")
	}
}

func TestMoreCutTrafficMoreRemoteEvents(t *testing.T) {
	// Splitting the path mid-way produces remote traffic; keeping the whole
	// path on one engine (second engine owns an untouched node) produces
	// none for this flow.
	nw := lineNet()
	resCut, err := Run(Config{Network: nw, Assignment: []int{0, 0, 1, 1}, NumEngines: 2, Workload: oneFlow(64<<10, 0)})
	if err != nil {
		t.Fatal(err)
	}
	resLocal, err := Run(Config{Network: nw, Assignment: []int{0, 0, 0, 0}, NumEngines: 2, Workload: oneFlow(64<<10, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if resCut.RemoteEvents <= resLocal.RemoteEvents {
		t.Errorf("cut remote %d <= local remote %d", resCut.RemoteEvents, resLocal.RemoteEvents)
	}
}

// roundRobin assigns n nodes to k engines cyclically.
func roundRobin(n, k int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = i % k
	}
	return a
}

func TestFlowCompletionTimes(t *testing.T) {
	nw := lineNet()
	w := traffic.Workload{
		Flows: []traffic.Flow{
			{ID: 0, Src: 0, Dst: 3, Start: 1, Bytes: 1500},
			{ID: 1, Src: 0, Dst: 3, Start: 2, Bytes: 10 << 20},
		},
		Duration: 30,
	}
	res, err := Run(Config{Network: nw, Assignment: []int{0, 0, 0, 0}, NumEngines: 1, Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FlowFCTs) != 2 {
		t.Fatalf("FCTs = %v", res.FlowFCTs)
	}
	// Single packet: ~3ms propagation + serialization.
	if res.FlowFCTs[0] < 3e-3 || res.FlowFCTs[0] > 10e-3 {
		t.Errorf("small flow FCT = %v, want ~3-4ms", res.FlowFCTs[0])
	}
	// 10 MiB over a 100 Mb/s access link: >= 0.8s.
	if res.FlowFCTs[1] < 0.8 {
		t.Errorf("large flow FCT = %v, want >= 0.8s", res.FlowFCTs[1])
	}
	completed, mean, p95 := res.FCTStats()
	if completed != 2 {
		t.Errorf("completed = %d, want 2", completed)
	}
	if mean <= 0 || p95 < mean {
		t.Errorf("FCT stats mean=%v p95=%v", mean, p95)
	}
}

func TestFlowFCTIncomplete(t *testing.T) {
	// EndTime truncation leaves the flow undelivered: FCT must be -1.
	nw := lineNet()
	res, err := Run(Config{
		Network: nw, Assignment: []int{0, 0, 0, 0}, NumEngines: 1,
		Workload: oneFlow(10<<20, 0), EndTime: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowFCTs[0] != -1 {
		t.Errorf("truncated flow FCT = %v, want -1", res.FlowFCTs[0])
	}
	if completed, _, _ := res.FCTStats(); completed != 0 {
		t.Errorf("completed = %d, want 0", completed)
	}
}

func TestTCPFCTSlowerThanBlast(t *testing.T) {
	// TCP slow start stretches a multi-round flow's completion time.
	nw := lineNet()
	w := oneFlow(1<<20, 0)
	blast, err := Run(Config{Network: nw, Assignment: []int{0, 0, 0, 0}, NumEngines: 1, Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := Run(Config{Network: nw, Assignment: []int{0, 0, 0, 0}, NumEngines: 1, Workload: w, Transport: TCPSlowStart})
	if err != nil {
		t.Fatal(err)
	}
	if tcp.FlowFCTs[0] <= blast.FlowFCTs[0] {
		t.Errorf("TCP FCT %v <= blast FCT %v", tcp.FlowFCTs[0], blast.FlowFCTs[0])
	}
}

func TestLinkBytesConservation(t *testing.T) {
	// Each link on the path carries exactly the flow's bytes.
	nw := lineNet()
	res, err := Run(Config{
		Network: nw, Assignment: []int{0, 0, 1, 1}, NumEngines: 2,
		Workload: oneFlow(300<<10, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for l, b := range res.LinkBytes {
		if b != 300<<10 {
			t.Errorf("link %d carried %d bytes, want %d", l, b, 300<<10)
		}
	}
}

func TestFiniteBufferDrops(t *testing.T) {
	// Two big simultaneous flows over one 100 Mb/s access link with a tiny
	// 64 KiB buffer: the second flow's chunks must tail-drop.
	nw := lineNet()
	w := traffic.Workload{
		Flows: []traffic.Flow{
			{ID: 0, Src: 0, Dst: 3, Start: 0, Bytes: 4 << 20},
			{ID: 1, Src: 0, Dst: 3, Start: 0, Bytes: 4 << 20},
		},
		Duration: 30,
	}
	limited, err := Run(Config{
		Network: nw, Assignment: []int{0, 0, 0, 0}, NumEngines: 1,
		Workload: w, BufferBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if limited.DroppedPackets == 0 {
		t.Error("no drops despite tiny buffer")
	}
	unlimited, err := Run(Config{
		Network: nw, Assignment: []int{0, 0, 0, 0}, NumEngines: 1, Workload: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if unlimited.DroppedPackets != 0 {
		t.Errorf("unbounded buffer dropped %d packets", unlimited.DroppedPackets)
	}
	// Drops reduce total kernel events (dropped chunks stop traveling).
	if limited.Kernel.TotalCharges() >= unlimited.Kernel.TotalCharges() {
		t.Errorf("charges with drops %d >= without %d",
			limited.Kernel.TotalCharges(), unlimited.Kernel.TotalCharges())
	}
	// Flows cannot have completed with dropped bytes.
	for i, fct := range limited.FlowFCTs {
		if fct >= 0 && limited.DroppedPackets > 0 && i == 1 {
			// At least the queue-behind flow should be incomplete.
			t.Errorf("flow %d completed despite drops", i)
		}
	}
}
