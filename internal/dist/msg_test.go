package dist

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/metrics"
	"repro/internal/netgraph"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

func testSpec(t *testing.T) *Spec {
	t.Helper()
	nw := netgraph.New("wire-test")
	r0 := nw.AddRouter("r0", 1)
	r1 := nw.AddRouter("r1", 2)
	h0 := nw.AddHost("h0", 1)
	h1 := nw.AddHost("h1", 2)
	nw.SetSite(h0, "siteA")
	nw.AddLink(r0, r1, 1e9, 0.005)
	nw.AddLink(h0, r0, 1e8, 0.001)
	nw.AddLink(h1, r1, 1e8, 0.001)
	s := &Spec{
		Cfg: emu.Config{
			Network: nw,
			Workload: traffic.Workload{
				Flows: []traffic.Flow{
					{ID: 0, Src: h0, Dst: h1, Start: 0.25, Bytes: 1 << 20, Tag: "http"},
					{ID: 1, Src: h1, Dst: h0, Start: 0.5, Bytes: 4096, Tag: "app"},
				},
				AppHosts: []int{h0, h1},
				Duration: 10,
			},
			Assignment: []int{0, 1, 0, 1},
			NumEngines: 2,
		},
	}
	if err := emu.NormalizeConfig(&s.Cfg); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return s
}

func TestSpecRoundTrip(t *testing.T) {
	s := testSpec(t)
	s.Routing = netgraph.RoutingOptions{Backend: netgraph.Lazy, LazyRows: 3}
	s.Telemetry = true
	blob, err := EncodeSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpec(blob)
	if err != nil {
		t.Fatal(err)
	}
	// The worker-side fidelity check: re-encoding the rebuilt spec must give
	// the identical blob (and hence the identical hash).
	reblob, err := EncodeSpec(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, reblob) {
		t.Fatal("rebuilt spec does not re-encode to the shipped blob")
	}
	if SpecHash(blob) != SpecHash(reblob) {
		t.Fatal("hash mismatch")
	}
	if got.Cfg.Network.NumNodes() != 4 || len(got.Cfg.Network.Links) != 3 {
		t.Fatalf("topology did not survive: %d nodes, %d links",
			got.Cfg.Network.NumNodes(), len(got.Cfg.Network.Links))
	}
	if got.Cfg.Network.Nodes[2].Site != "siteA" {
		t.Fatal("node site lost")
	}
	if !reflect.DeepEqual(got.Cfg.Workload.Flows, s.Cfg.Workload.Flows) {
		t.Fatal("workload flows did not survive")
	}
	if !reflect.DeepEqual(got.Cfg.Assignment, s.Cfg.Assignment) {
		t.Fatal("assignment did not survive")
	}
	if !got.Telemetry || got.Routing != s.Routing {
		t.Fatal("flags did not survive")
	}
	if got.Cfg.Routes == nil || got.Cfg.Routes.Stats().Backend != "lazy" {
		t.Fatalf("decoded spec did not resolve the lazy oracle: %+v", got.Cfg.Routes)
	}
}

func TestSpecRejectsFaultsAndHooks(t *testing.T) {
	s := testSpec(t)
	s.Cfg.OnCrash = func(emu.EngineFailure) ([]int, error) { return nil, nil }
	if _, err := EncodeSpec(s); err == nil {
		t.Fatal("OnCrash must not ship")
	}
}

func TestSpecTruncationNeverPanics(t *testing.T) {
	s := testSpec(t)
	blob, err := EncodeSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeSpec(blob[:cut]); err == nil {
			t.Fatalf("truncated spec (%d of %d bytes) decoded without error", cut, len(blob))
		}
	}
	// Trailing garbage is an error too.
	if _, err := DecodeSpec(append(append([]byte(nil), blob...), 0x00)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
}

func TestEventsRoundTripExactFloats(t *testing.T) {
	evs := []emu.WireEvent{
		{Time: 0.1 + 0.2, Dst: 1, Src: 0, SrcIdx: 7, Kind: emu.WireChunk, Flow: 3, Hop: 2, Packets: 11, Bytes: 1500},
		{Time: math.Nextafter(1, 2), Dst: 0, Src: 2, SrcIdx: 0, Kind: emu.WireTCPRound, Flow: 1, Window: 4, Offset: 1 << 30},
		{Time: 5, Dst: 2, Src: 1, SrcIdx: 3, Kind: emu.WireFlowStart, Flow: 0},
	}
	got, err := DecodeEvents(EncodeEvents(evs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("events did not round-trip exactly:\n got %+v\nwant %+v", got, evs)
	}
}

func TestWindowRoundTripCarriesEvents(t *testing.T) {
	w := Window{Start: 0.5, End: math.Nextafter(1, 2), Events: []emu.WireEvent{
		{Time: 1.25, Dst: 2, Src: 0, SrcIdx: 1, Kind: emu.WireChunk, Flow: 3, Hop: 1, Packets: 2, Bytes: 3000},
		{Time: 1.5, Dst: 0, Src: 1, SrcIdx: 0, Kind: emu.WireTCPRound, Flow: 4, Window: 8, Offset: 1 << 20},
	}}
	got, err := DecodeWindow(w.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("window did not round-trip exactly:\n got %+v\nwant %+v", got, w)
	}
	empty, err := DecodeWindow(Window{Start: 1, End: 2}.Encode())
	if err != nil || empty.Events != nil || empty.End != 2 {
		t.Fatalf("event-less window: got %+v, %v", empty, err)
	}
}

func TestWindowDoneRoundTripWithTelemetry(t *testing.T) {
	h := telemetry.NewRunHistogram()
	h.Observe(0.001)
	h.Observe(2.5)
	h.Observe(math.NaN()) // NaNCount must survive the wire
	p := &telemetry.Partial{
		Engines:       []int{1},
		MatrixBytes:   []int64{10, 20, 30},
		MatrixPackets: []int64{1, 2, 3},
		HasSlow:       true,
		LinkTxBytes:   []int64{5, 6},
		LinkTxPackets: []int64{1, 1},
		LinkRxPackets: []int64{2, 2},
		NodePackets:   []int64{9, 8, 7},
		SeriesLoads:   [][]float64{{1.5, 0, 2.5}, {0, 0.25, 0}},
		QueueDelay:    []*metrics.Histogram{h},
		FCT:           []*metrics.Histogram{telemetry.NewRunHistogram()},
		FlowsDone:     []int64{4},
		Drops:         []int64{0},
	}
	r := &emu.WindowReport{
		Events:    []int64{3, 0, 5},
		Charges:   []int64{2, 0, 4},
		Remote:    []int64{1, 0, 0},
		Queue:     []int64{0, 0, 2},
		Outbox:    []emu.WireEvent{{Time: 1.25, Dst: 2, Src: 0, SrcIdx: 1, Kind: emu.WireFlowStart, Flow: 9}},
		Telemetry: p,
	}
	vote := Vote{Has: true, Time: math.Nextafter(2, 3)}
	got, gotVote, err := DecodeWindowDone(EncodeWindowDone(r, vote))
	if err != nil {
		t.Fatal(err)
	}
	if gotVote != vote {
		t.Fatalf("vote did not round-trip: got %+v, want %+v", gotVote, vote)
	}
	if !reflect.DeepEqual(got.Events, r.Events) || !reflect.DeepEqual(got.Outbox, r.Outbox) {
		t.Fatal("window counters/outbox did not round-trip")
	}
	gp := got.Telemetry
	if gp == nil || !gp.HasSlow {
		t.Fatal("telemetry partial lost")
	}
	if !reflect.DeepEqual(gp.SeriesLoads, p.SeriesLoads) {
		t.Fatal("series loads did not round-trip")
	}
	gh := gp.QueueDelay[0]
	if gh.Count != h.Count || gh.Sum != h.Sum || gh.NaNCount != 1 {
		t.Fatalf("histogram did not round-trip: count=%d sum=%g nan=%d", gh.Count, gh.Sum, gh.NaNCount)
	}
	if !reflect.DeepEqual(gh.Counts, h.Counts) {
		t.Fatal("histogram buckets did not round-trip")
	}
}

func testInstall() *emu.ElasticInstall {
	h := telemetry.NewRunHistogram()
	h.Observe(0.25)
	return &emu.ElasticInstall{
		At:          4,
		Lookahead:   0.005,
		Engines:     []int{0, 2},
		Assignment:  []int{0, 2, 0, 2},
		Windows:     17,
		SkippedTime: 1.5,
		Events:      []int64{3, 0, 9},
		Charges:     []int64{2, 0, 8},
		RemoteSends: []int64{1, 0, 0},
		Pending: []emu.WireEvent{
			{Time: 4.25, Dst: 2, Src: 0, SrcIdx: 1, Kind: emu.WireChunk, Flow: 1, Hop: 1, Packets: 3, Bytes: 4500},
		},
		BusyUntil: []float64{0, math.Nextafter(4, 5), 0, 0, 3.5, 0},
		LinkBytes: []int64{10, 0, 30, 0, 50, 0},
		Drops:     []int64{0, 0, 1, 0, 0, 0},
		Delivered: []int64{100, 0},
		FCTs:      []float64{0.5, -1},
		Telemetry: &telemetry.Partial{
			Engines:       []int{0, 2},
			MatrixBytes:   []int64{1, 2, 3},
			MatrixPackets: []int64{4, 5, 6},
			HasSlow:       true,
			LinkTxBytes:   []int64{7, 8, 9, 10, 11, 12},
			LinkTxPackets: []int64{1, 1, 1, 1, 1, 1},
			LinkRxPackets: []int64{2, 2, 2, 2, 2, 2},
			NodePackets:   []int64{3, 4, 5, 6},
			SeriesLoads:   [][]float64{{0.5, 0, 1.5}},
			QueueDelay:    []*metrics.Histogram{h},
			FCT:           []*metrics.Histogram{telemetry.NewRunHistogram()},
			FlowsDone:     []int64{1},
			Drops:         []int64{0},
		},
	}
}

func TestElasticInstallRoundTrip(t *testing.T) {
	in := testInstall()
	got, err := DecodeElasticInstall(EncodeElasticInstall(in))
	if err != nil {
		t.Fatal(err)
	}
	gt, it := got.Telemetry, in.Telemetry
	got.Telemetry, in.Telemetry = nil, nil
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("install did not round-trip:\n got %+v\nwant %+v", got, in)
	}
	if gt == nil || !reflect.DeepEqual(gt.MatrixBytes, it.MatrixBytes) ||
		gt.QueueDelay[0].Count != it.QueueDelay[0].Count {
		t.Fatal("install telemetry did not round-trip")
	}
}

func TestElasticExportRoundTrip(t *testing.T) {
	x := &emu.ElasticExport{
		Engines:   []int{1},
		Events:    []emu.WireEvent{{Time: 2.5, Dst: 0, Src: 1, SrcIdx: 2, Kind: emu.WireTCPRound, Flow: 7, Window: 2, Offset: 4096}},
		BusyUntil: []float64{0, 1.25},
		LinkBytes: []int64{0, 99},
		Drops:     []int64{0, 1},
		Delivered: []int64{0, 3},
		FCTs:      []float64{-1, math.Nextafter(1, 2)},
	}
	got, err := DecodeElasticExport(EncodeElasticExport(x))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, x) {
		t.Fatalf("export did not round-trip:\n got %+v\nwant %+v", got, x)
	}
}

// TestElasticInstallTruncationNeverPanics sweeps every prefix of an INSTALL
// payload — the largest, deepest-nested elastic message — through its
// decoder: every truncation must be an error, never a panic or a partial
// success, so a mid-handshake connection cut surfaces as a decode error
// instead of corrupt state.
func TestElasticInstallTruncationNeverPanics(t *testing.T) {
	blob := EncodeElasticInstall(testInstall())
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeElasticInstall(blob[:cut]); err == nil {
			t.Fatalf("truncated install (%d of %d bytes) decoded without error", cut, len(blob))
		}
	}
	if _, err := DecodeElasticInstall(append(append([]byte(nil), blob...), 0xff)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
}

func TestStateRoundTrip(t *testing.T) {
	s := &emu.DistState{
		Engines:     []int{0, 2},
		Events:      []int64{10, 0, 30},
		Charges:     []int64{9, 0, 29},
		RemoteSends: []int64{1, 0, 2},
		LinkBytes:   []int64{100, 200, 300, 400},
		Drops:       []int64{0, 1, 0, 0},
		FCTs:        []float64{0.5, -1, math.Nextafter(2, 3)},
	}
	got, err := DecodeState(EncodeState(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("state did not round-trip:\n got %+v\nwant %+v", got, s)
	}
}
