package dist

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// Message payload codecs. Every message has an Encode producing a payload
// and a decode validating one; the scenario spec is special — it is encoded
// canonically (node and link insertion order preserved, floats as exact
// bits) so that sha256(spec) is a content hash both sides can compute
// independently: the worker re-encodes the scenario it rebuilt and compares
// hashes, catching both transport corruption and any reconstruction drift.

// Hello opens a worker connection.
type Hello struct {
	Version uint32
}

func (m Hello) Encode() []byte {
	var e encoder
	e.u32(m.Version)
	return e.buf
}

func DecodeHello(b []byte) (Hello, error) {
	d := decoder{buf: b}
	m := Hello{Version: d.u32("hello.version")}
	return m, d.finish()
}

// Assign ships the scenario and the worker's place in the run.
type Assign struct {
	Version  uint32
	WorkerID int
	Workers  int
	// Engines is the worker's engine set, ascending.
	Engines []int
	// Hash is sha256 over Spec.
	Hash [32]byte
	// Spec is the canonical scenario encoding (see EncodeSpec).
	Spec []byte
}

func (m Assign) Encode() []byte {
	var e encoder
	e.u32(m.Version)
	e.u32(uint32(m.WorkerID))
	e.u32(uint32(m.Workers))
	e.ints(m.Engines)
	e.buf = append(e.buf, m.Hash[:]...)
	e.u32(uint32(len(m.Spec)))
	e.buf = append(e.buf, m.Spec...)
	return e.buf
}

func DecodeAssign(b []byte) (Assign, error) {
	d := decoder{buf: b}
	m := Assign{
		Version:  d.u32("assign.version"),
		WorkerID: int(d.u32("assign.worker")),
		Workers:  int(d.u32("assign.workers")),
		Engines:  d.ints("assign.engines"),
	}
	copy(m.Hash[:], d.take(32, "assign.hash"))
	n := d.count(1, "assign.spec")
	m.Spec = append([]byte(nil), d.take(n, "assign.spec")...)
	return m, d.finish()
}

// Ready acknowledges an Assign.
type Ready struct {
	// Hash is the worker's independently recomputed spec hash.
	Hash [32]byte
	// Lookahead is the window width the worker derived — compared bit-for-
	// bit against the coordinator's.
	Lookahead float64
}

func (m Ready) Encode() []byte {
	var e encoder
	e.buf = append(e.buf, m.Hash[:]...)
	e.f64(m.Lookahead)
	return e.buf
}

func DecodeReady(b []byte) (Ready, error) {
	d := decoder{buf: b}
	var m Ready
	copy(m.Hash[:], d.take(32, "ready.hash"))
	m.Lookahead = d.f64("ready.lookahead")
	return m, d.finish()
}

// Vote is the worker's barrier vote.
type Vote struct {
	Has  bool
	Time float64
}

func (m Vote) Encode() []byte {
	var e encoder
	e.boolean(m.Has)
	e.f64(m.Time)
	return e.buf
}

func DecodeVote(b []byte) (Vote, error) {
	d := decoder{buf: b}
	m := Vote{Has: d.boolean("vote.has"), Time: d.f64("vote.time")}
	return m, d.finish()
}

// Window commands one window's execution [Start, End). It carries the
// previous barrier's events bound for the receiving worker's engines, in
// global merge order; the worker injects them before it steps.
type Window struct {
	Start, End float64
	Events     []emu.WireEvent
}

func (m Window) Encode() []byte {
	e := encoder{buf: make([]byte, 0, 16+4+wireEventSize*len(m.Events))}
	e.f64(m.Start)
	e.f64(m.End)
	encodeWireEvents(&e, m.Events)
	return e.buf
}

func DecodeWindow(b []byte) (Window, error) {
	d := decoder{buf: b}
	m := Window{Start: d.f64("window.start"), End: d.f64("window.end")}
	m.Events = decodeWireEvents(&d)
	return m, d.finish()
}

// CheckpointMsg commands a barrier snapshot at virtual time At; the ack
// carries the worker's checkpoint count.
type CheckpointMsg struct{ At float64 }

func (m CheckpointMsg) Encode() []byte {
	var e encoder
	e.f64(m.At)
	return e.buf
}

func DecodeCheckpoint(b []byte) (CheckpointMsg, error) {
	d := decoder{buf: b}
	m := CheckpointMsg{At: d.f64("checkpoint.at")}
	return m, d.finish()
}

type CheckpointAck struct{ Count int64 }

func (m CheckpointAck) Encode() []byte {
	var e encoder
	e.i64(m.Count)
	return e.buf
}

func DecodeCheckpointAck(b []byte) (CheckpointAck, error) {
	d := decoder{buf: b}
	m := CheckpointAck{Count: d.i64("checkpointAck.count")}
	return m, d.finish()
}

// TextMsg carries MsgError and MsgAbort reasons.
type TextMsg struct{ Text string }

func (m TextMsg) Encode() []byte {
	var e encoder
	e.str(m.Text)
	return e.buf
}

func DecodeText(b []byte) (TextMsg, error) {
	d := decoder{buf: b}
	m := TextMsg{Text: d.str("text")}
	return m, d.finish()
}

// ---- Wire events ----

func encodeWireEvents(e *encoder, evs []emu.WireEvent) {
	e.u32(uint32(len(evs)))
	for _, w := range evs {
		e.f64(w.Time)
		e.u32(uint32(w.Dst))
		e.u32(uint32(w.Src))
		e.u32(uint32(w.SrcIdx))
		e.u8(w.Kind)
		e.u32(uint32(w.Flow))
		e.u32(uint32(w.Hop))
		e.u32(uint32(w.Window))
		e.i64(w.Packets)
		e.i64(w.Bytes)
		e.i64(w.Offset)
	}
}

const wireEventSize = 8 + 4*6 + 1 + 8*3

func decodeWireEvents(d *decoder) []emu.WireEvent {
	n := d.count(wireEventSize, "events.count")
	if d.err != nil || n == 0 {
		return nil
	}
	evs := make([]emu.WireEvent, n)
	for i := range evs {
		evs[i] = emu.WireEvent{
			Time:    d.f64("event.time"),
			Dst:     int32(d.u32("event.dst")),
			Src:     int32(d.u32("event.src")),
			SrcIdx:  int32(d.u32("event.srcIdx")),
			Kind:    d.u8("event.kind"),
			Flow:    int32(d.u32("event.flow")),
			Hop:     int32(d.u32("event.hop")),
			Window:  int32(d.u32("event.window")),
			Packets: d.i64("event.packets"),
			Bytes:   d.i64("event.bytes"),
			Offset:  d.i64("event.offset"),
		}
	}
	return evs
}

// EncodeEvents/DecodeEvents carry MsgEvents payloads.
func EncodeEvents(evs []emu.WireEvent) []byte {
	var e encoder
	encodeWireEvents(&e, evs)
	return e.buf
}

func DecodeEvents(b []byte) ([]emu.WireEvent, error) {
	d := decoder{buf: b}
	evs := decodeWireEvents(&d)
	return evs, d.finish()
}

// ---- Telemetry partials ----

func encodeHist(e *encoder, h *metrics.Histogram) {
	e.i64s(h.Counts)
	e.i64(h.Count)
	e.f64(h.Sum)
	e.i64(h.NaNCount)
}

func decodeHist(d *decoder) *metrics.Histogram {
	counts := d.i64s("hist.counts")
	h := telemetry.NewRunHistogram()
	if d.err == nil && len(counts) != len(h.Counts) {
		d.fail("hist.layout")
	}
	if d.err == nil {
		copy(h.Counts, counts)
	}
	h.Count = d.i64("hist.count")
	h.Sum = d.f64("hist.sum")
	h.NaNCount = d.i64("hist.nan")
	return h
}

func encodePartial(e *encoder, p *telemetry.Partial) {
	if p == nil {
		e.boolean(false)
		return
	}
	e.boolean(true)
	e.ints(p.Engines)
	e.i64s(p.MatrixBytes)
	e.i64s(p.MatrixPackets)
	e.boolean(p.HasSlow)
	if !p.HasSlow {
		return
	}
	e.i64s(p.LinkTxBytes)
	e.i64s(p.LinkTxPackets)
	e.i64s(p.LinkRxPackets)
	e.i64s(p.NodePackets)
	e.u32(uint32(len(p.SeriesLoads)))
	for _, row := range p.SeriesLoads {
		e.f64s(row)
	}
	e.u32(uint32(len(p.QueueDelay)))
	for i := range p.QueueDelay {
		encodeHist(e, p.QueueDelay[i])
		encodeHist(e, p.FCT[i])
	}
	e.i64s(p.FlowsDone)
	e.i64s(p.Drops)
}

func decodePartial(d *decoder) *telemetry.Partial {
	if !d.boolean("partial.present") {
		return nil
	}
	p := &telemetry.Partial{
		Engines:       d.ints("partial.engines"),
		MatrixBytes:   d.i64s("partial.matrixBytes"),
		MatrixPackets: d.i64s("partial.matrixPackets"),
		HasSlow:       d.boolean("partial.hasSlow"),
	}
	if !p.HasSlow {
		return p
	}
	p.LinkTxBytes = d.i64s("partial.linkTxBytes")
	p.LinkTxPackets = d.i64s("partial.linkTxPackets")
	p.LinkRxPackets = d.i64s("partial.linkRxPackets")
	p.NodePackets = d.i64s("partial.nodePackets")
	rows := d.count(4, "partial.seriesRows")
	p.SeriesLoads = make([][]float64, 0, rows)
	for i := 0; i < rows && d.err == nil; i++ {
		p.SeriesLoads = append(p.SeriesLoads, d.f64s("partial.seriesRow"))
	}
	nh := d.count(1, "partial.hists")
	for i := 0; i < nh && d.err == nil; i++ {
		p.QueueDelay = append(p.QueueDelay, decodeHist(d))
		p.FCT = append(p.FCT, decodeHist(d))
	}
	p.FlowsDone = d.i64s("partial.flowsDone")
	p.Drops = d.i64s("partial.drops")
	return p
}

// EncodeWindowDone/DecodeWindowDone carry MsgWindowDone payloads: the
// window's report and the worker's vote taken after the window, before the
// next WINDOW delivers anything.
func EncodeWindowDone(r *emu.WindowReport, v Vote) []byte {
	var e encoder
	e.i64s(r.Events)
	e.i64s(r.Charges)
	e.i64s(r.Remote)
	e.i64s(r.Queue)
	encodeWireEvents(&e, r.Outbox)
	encodePartial(&e, r.Telemetry)
	e.boolean(v.Has)
	e.f64(v.Time)
	return e.buf
}

func DecodeWindowDone(b []byte) (*emu.WindowReport, Vote, error) {
	d := decoder{buf: b}
	r := &emu.WindowReport{
		Events:  d.i64s("windowDone.events"),
		Charges: d.i64s("windowDone.charges"),
		Remote:  d.i64s("windowDone.remote"),
		Queue:   d.i64s("windowDone.queue"),
		Outbox:  decodeWireEvents(&d),
	}
	r.Telemetry = decodePartial(&d)
	v := Vote{Has: d.boolean("windowDone.vote.has"), Time: d.f64("windowDone.vote.time")}
	return r, v, d.finish()
}

// EncodeState/DecodeState carry MsgState payloads.
func EncodeState(s *emu.DistState) []byte {
	var e encoder
	e.ints(s.Engines)
	e.i64s(s.Events)
	e.i64s(s.Charges)
	e.i64s(s.RemoteSends)
	e.i64s(s.LinkBytes)
	e.i64s(s.Drops)
	e.f64s(s.FCTs)
	encodePartial(&e, s.Telemetry)
	return e.buf
}

// EncodeSpans/DecodeSpans carry MsgSpans payloads: a worker's buffered
// wall-clock trace spans. Busy never ships (the coordinator derives modeled
// busy from the merged counters itself) and Worker is implied by the sending
// connection; Window is the worker's local window count, which the
// coordinator ignores in favor of its own commit order.
func EncodeSpans(spans []obs.Span) []byte {
	var e encoder
	e.u32(uint32(len(spans)))
	for _, s := range spans {
		e.u8(uint8(s.Kind))
		e.i64(int64(s.Engine))
		e.i64(s.Window)
		e.f64(s.Start)
		e.f64(s.End)
		e.f64(s.Wall)
	}
	return e.buf
}

func DecodeSpans(b []byte) ([]obs.Span, error) {
	d := decoder{buf: b}
	n := d.count(41, "spans")
	out := make([]obs.Span, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, obs.Span{
			Kind:   obs.SpanKind(d.u8("span.kind")),
			Engine: int(d.i64("span.engine")),
			Window: d.i64("span.window"),
			Start:  d.f64("span.start"),
			End:    d.f64("span.end"),
			Wall:   d.f64("span.wall"),
		})
	}
	return out, d.finish()
}

func DecodeState(b []byte) (*emu.DistState, error) {
	d := decoder{buf: b}
	s := &emu.DistState{
		Engines:     d.ints("state.engines"),
		Events:      d.i64s("state.events"),
		Charges:     d.i64s("state.charges"),
		RemoteSends: d.i64s("state.remoteSends"),
		LinkBytes:   d.i64s("state.linkBytes"),
		Drops:       d.i64s("state.drops"),
		FCTs:        d.f64s("state.fcts"),
	}
	s.Telemetry = decodePartial(&d)
	return s, d.finish()
}

// ---- The scenario spec ----

// Spec is the self-contained scenario a worker rebuilds the emulation from:
// topology, workload, assignment and every numeric knob of the run, plus the
// routing mode and whether telemetry is collected. Functions (OnCrash) and
// crash schedules never ship — EncodeSpec rejects them; straggler and
// degradation schedules do ship (they parameterize the coordinator's cost
// model, and the worker needs them only to round-trip the spec hash).
type Spec struct {
	Cfg emu.Config
	// Routing selects the route-oracle backend the worker rebuilds. The raw
	// (un-normalized) options ship on the wire; both sides normalize against
	// the same node count, so coordinator and workers always resolve the
	// same backend.
	Routing netgraph.RoutingOptions
	// Telemetry tells the worker to run a collector so its share of the
	// traffic plane can be merged at each barrier.
	Telemetry bool
	// Tracing tells the worker to measure wall-clock spans (window compute,
	// wire, checkpoint, migrate) and ship them in SPANS frames.
	Tracing bool
}

// EncodeSpec canonically encodes a normalized config (emu.NormalizeConfig
// must have been applied). Node and link insertion order is preserved —
// routing tie-breaks depend on it.
func EncodeSpec(s *Spec) ([]byte, error) {
	cfg := &s.Cfg
	if cfg.Network == nil {
		return nil, fmt.Errorf("dist: spec needs a network")
	}
	if cfg.Faults.HasCrashes() || cfg.OnCrash != nil {
		return nil, fmt.Errorf("dist: crash schedules and crash hooks do not ship")
	}
	var e encoder
	e.u32(Version)
	nw := cfg.Network
	e.str(nw.Name)
	e.u32(uint32(len(nw.Nodes)))
	for _, n := range nw.Nodes {
		e.u8(uint8(n.Kind))
		e.str(n.Name)
		e.i64(int64(n.AS))
		e.str(n.Site)
	}
	e.u32(uint32(len(nw.Links)))
	for _, l := range nw.Links {
		e.i64(int64(l.A))
		e.i64(int64(l.B))
		e.f64(l.Bandwidth)
		e.f64(l.Latency)
	}
	w := &cfg.Workload
	e.u32(uint32(len(w.Flows)))
	for _, f := range w.Flows {
		e.i64(int64(f.ID))
		e.i64(int64(f.Src))
		e.i64(int64(f.Dst))
		e.f64(f.Start)
		e.i64(f.Bytes)
		e.str(f.Tag)
	}
	e.ints(w.AppHosts)
	e.f64(w.Duration)

	e.ints(cfg.Assignment)
	e.i64(int64(cfg.NumEngines))
	e.i64(cfg.ChunkBytes)
	e.i64(cfg.MTU)
	e.f64(cfg.Cost.PerEvent)
	e.f64(cfg.Cost.PerRemote)
	e.f64(cfg.Cost.PerWindow)
	e.f64(cfg.BucketWidth)
	e.f64(cfg.EndTime)
	e.i64(int64(cfg.Transport))
	e.f64s(cfg.EngineSpeeds)
	e.i64(cfg.BufferBytes)
	e.f64(cfg.MinLookahead)
	e.f64(cfg.MigrationCost)
	e.u8(uint8(s.Routing.Backend))
	e.i64(int64(s.Routing.LazyRows))
	e.i64(int64(s.Routing.Clusters))
	e.boolean(s.Telemetry)
	e.boolean(s.Tracing)
	// Straggler/degradation schedule (crash-free, checked above). Workers
	// never apply it — the cost model runs on the coordinator — but it must
	// round-trip so the spec hash covers the whole scenario.
	var stragglers []faults.Straggler
	var degradations []faults.Degradation
	if cfg.Faults != nil {
		stragglers = cfg.Faults.Stragglers
		degradations = cfg.Faults.Degradations
	}
	e.u32(uint32(len(stragglers)))
	for _, st := range stragglers {
		e.i64(int64(st.Engine))
		e.f64(st.From)
		e.f64(st.To)
		e.f64(st.Factor)
	}
	e.u32(uint32(len(degradations)))
	for _, dg := range degradations {
		e.f64(dg.From)
		e.f64(dg.To)
		e.f64(dg.Factor)
	}
	return e.buf, nil
}

// SpecHash is the content hash both sides compute over the canonical spec
// encoding.
func SpecHash(blob []byte) [32]byte { return sha256.Sum256(blob) }

// DecodeSpec rebuilds the scenario. The returned config's Routes field is
// set to the oracle the spec's RoutingOptions select, resolved through the
// rebuilt network's shared routing cache.
func DecodeSpec(b []byte) (*Spec, error) {
	d := decoder{buf: b}
	if v := d.u32("spec.version"); d.err == nil && v != Version {
		return nil, fmt.Errorf("dist: spec version %d, this build speaks %d", v, Version)
	}
	nw := netgraph.New(d.str("spec.network.name"))
	nodes := d.count(6, "spec.nodes")
	for i := 0; i < nodes && d.err == nil; i++ {
		kind := d.u8("spec.node.kind")
		name := d.str("spec.node.name")
		as := int(d.i64("spec.node.as"))
		site := d.str("spec.node.site")
		var id int
		switch netgraph.NodeKind(kind) {
		case netgraph.Router:
			id = nw.AddRouter(name, as)
		case netgraph.Host:
			id = nw.AddHost(name, as)
		default:
			return nil, fmt.Errorf("dist: spec node %d has unknown kind %d", i, kind)
		}
		if site != "" {
			nw.SetSite(id, site)
		}
	}
	links := d.count(24, "spec.links")
	for i := 0; i < links && d.err == nil; i++ {
		a := int(d.i64("spec.link.a"))
		b2 := int(d.i64("spec.link.b"))
		bw := d.f64("spec.link.bw")
		lat := d.f64("spec.link.lat")
		if a < 0 || a >= nw.NumNodes() || b2 < 0 || b2 >= nw.NumNodes() {
			return nil, fmt.Errorf("dist: spec link %d endpoints (%d,%d) out of range", i, a, b2)
		}
		nw.AddLink(a, b2, bw, lat)
	}
	var wl traffic.Workload
	flows := d.count(40, "spec.flows")
	for i := 0; i < flows && d.err == nil; i++ {
		wl.Flows = append(wl.Flows, traffic.Flow{
			ID:    int(d.i64("spec.flow.id")),
			Src:   int(d.i64("spec.flow.src")),
			Dst:   int(d.i64("spec.flow.dst")),
			Start: d.f64("spec.flow.start"),
			Bytes: d.i64("spec.flow.bytes"),
			Tag:   d.str("spec.flow.tag"),
		})
	}
	wl.AppHosts = d.ints("spec.appHosts")
	wl.Duration = d.f64("spec.duration")

	s := &Spec{Cfg: emu.Config{Network: nw, Workload: wl}}
	cfg := &s.Cfg
	cfg.Assignment = d.ints("spec.assignment")
	cfg.NumEngines = int(d.i64("spec.numEngines"))
	cfg.ChunkBytes = d.i64("spec.chunkBytes")
	cfg.MTU = d.i64("spec.mtu")
	cfg.Cost.PerEvent = d.f64("spec.cost.perEvent")
	cfg.Cost.PerRemote = d.f64("spec.cost.perRemote")
	cfg.Cost.PerWindow = d.f64("spec.cost.perWindow")
	cfg.BucketWidth = d.f64("spec.bucketWidth")
	cfg.EndTime = d.f64("spec.endTime")
	cfg.Transport = emu.TransportMode(d.i64("spec.transport"))
	cfg.EngineSpeeds = d.f64s("spec.engineSpeeds")
	cfg.BufferBytes = d.i64("spec.bufferBytes")
	cfg.MinLookahead = d.f64("spec.minLookahead")
	cfg.MigrationCost = d.f64("spec.migrationCost")
	s.Routing.Backend = netgraph.Backend(d.u8("spec.routing.backend"))
	s.Routing.LazyRows = int(d.i64("spec.routing.lazyRows"))
	s.Routing.Clusters = int(d.i64("spec.routing.clusters"))
	s.Telemetry = d.boolean("spec.telemetry")
	s.Tracing = d.boolean("spec.tracing")
	nst := d.count(32, "spec.stragglers")
	var stragglers []faults.Straggler
	for i := 0; i < nst && d.err == nil; i++ {
		stragglers = append(stragglers, faults.Straggler{
			Engine: int(d.i64("spec.straggler.engine")),
			From:   d.f64("spec.straggler.from"),
			To:     d.f64("spec.straggler.to"),
			Factor: d.f64("spec.straggler.factor"),
		})
	}
	ndg := d.count(24, "spec.degradations")
	var degradations []faults.Degradation
	for i := 0; i < ndg && d.err == nil; i++ {
		degradations = append(degradations, faults.Degradation{
			From:   d.f64("spec.degradation.from"),
			To:     d.f64("spec.degradation.to"),
			Factor: d.f64("spec.degradation.factor"),
		})
	}
	if len(stragglers) > 0 || len(degradations) > 0 {
		cfg.Faults = &faults.Schedule{Stragglers: stragglers, Degradations: degradations}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	routes, err := nw.SharedRouting(s.Routing)
	if err != nil {
		return nil, fmt.Errorf("dist: spec routing: %w", err)
	}
	cfg.Routes = routes
	return s, nil
}
