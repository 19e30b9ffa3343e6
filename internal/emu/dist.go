package emu

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Distributed execution split. The in-process Run couples three roles that a
// cluster deployment separates:
//
//   - engine execution: draining per-LP event queues window by window,
//   - the barrier: picking the global window, merging cross-engine events,
//   - observation: the time model, telemetry commit, and result assembly.
//
// DistLocal is the worker half — it executes a subset of engines on the
// shared emulation state built by prepare (every process rebuilds identical
// state from the shipped scenario, so pointers never cross the wire) and
// speaks in WireEvents, flat value records keyed by flow index. DistMerge is
// the coordinator half — it replays the barrier and observer logic of Run
// against the merged per-window counters, so AppTime/NetTime, telemetry and
// the final Result are bit-identical to an in-process run of the same
// scenario. The transport between them lives in internal/dist.

// Wire payload kinds. The emulator has exactly three event payloads; anything
// else on the wire is a protocol violation surfaced as ErrBadConfig.
const (
	WireFlowStart = uint8(iota)
	WireTCPRound
	WireChunk
)

// WireEvent is one cross-engine event in transportable form: no pointers,
// exact float bits, flows named by workload index. Src/SrcIdx carry the
// deterministic barrier-merge key (sending engine, send order).
type WireEvent struct {
	Time    float64
	Dst     int32
	Src     int32
	SrcIdx  int32
	Kind    uint8
	Flow    int32
	Hop     int32 // WireChunk
	Window  int32 // WireTCPRound
	Packets int64 // WireChunk
	Bytes   int64 // WireChunk
	Offset  int64 // WireTCPRound
}

// encodeSent flattens an outbox event into wire form.
func (e *emulation) encodeSent(s des.Sent) (WireEvent, error) {
	w := WireEvent{Time: s.Time, Dst: int32(s.Dst), Src: int32(s.Src), SrcIdx: int32(s.SrcIdx)}
	switch d := s.Data.(type) {
	case flowStart:
		w.Kind = WireFlowStart
		w.Flow = int32(d.flow.idx)
	case tcpRound:
		w.Kind = WireTCPRound
		w.Flow = int32(d.flow.idx)
		w.Offset = d.offset
		w.Window = int32(d.window)
	case *chunkArrival:
		w.Kind = WireChunk
		w.Flow = int32(d.flow.idx)
		w.Hop = int32(d.hop)
		w.Packets = d.packets
		w.Bytes = d.bytes
	default:
		return w, fmt.Errorf("%w: unshippable event payload %T", ErrBadConfig, s.Data)
	}
	return w, nil
}

// decodeWire rebuilds the in-memory payload from wire form against this
// process's own flow table. Malformed events return an error (they poison the
// run) rather than panicking the worker.
func (e *emulation) decodeWire(w WireEvent) (des.Sent, error) {
	s := des.Sent{Time: w.Time, Dst: int(w.Dst), Src: int(w.Src), SrcIdx: int(w.SrcIdx)}
	if w.Flow < 0 || int(w.Flow) >= len(e.flows) {
		return s, fmt.Errorf("%w: wire event names flow %d of %d", ErrBadConfig, w.Flow, len(e.flows))
	}
	f := e.flows[w.Flow]
	switch w.Kind {
	case WireFlowStart:
		s.Data = flowStart{flow: f}
	case WireTCPRound:
		s.Data = tcpRound{flow: f, offset: w.Offset, window: int(w.Window)}
	case WireChunk:
		if w.Hop < 0 || int(w.Hop) >= len(f.path) {
			return s, fmt.Errorf("%w: wire chunk at hop %d of a %d-hop path", ErrBadConfig, w.Hop, len(f.path))
		}
		s.Data = e.chunkAt(f, int(w.Hop), w.Packets, w.Bytes)
	default:
		return s, fmt.Errorf("%w: unknown wire event kind %d", ErrBadConfig, w.Kind)
	}
	return s, nil
}

// SortWire orders barrier events by the global merge key (time, sending
// engine, send order) — the exact order Run's barrier applies, which the
// coordinator must replicate before routing events back to workers.
func SortWire(evs []WireEvent) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.SrcIdx < b.SrcIdx
	})
}

// NormalizeConfig applies Run's validation and defaulting to cfg in place.
// The distributed coordinator normalizes before encoding the scenario for
// shipment, so every process hashes and rebuilds the exact same defaulted
// configuration.
func NormalizeConfig(cfg *Config) error { return validate(cfg) }

// checkDistConfig rejects features that do not distribute: PROFILE pre-runs
// happen in-process on the coordinator before the assignment ships, and crash
// schedules are owned by the in-process fallback path (worker loss).
// Straggler and degradation schedules DO distribute: they only scale the
// coordinator's cost model in observe, never worker execution, so the result
// path is unaffected by where engines physically run.
func checkDistConfig(cfg *Config) error {
	if cfg.Profile {
		return fmt.Errorf("%w: NetFlow profiling does not run distributed (run the PROFILE pre-run in-process)", ErrBadConfig)
	}
	if cfg.Faults.HasCrashes() || cfg.OnCrash != nil {
		return fmt.Errorf("%w: crash schedules do not run distributed (injected crashes are an in-process feature)", ErrBadConfig)
	}
	if len(cfg.Elastic) > 0 || cfg.OnResize != nil {
		return fmt.Errorf("%w: elastic schedules do not ship (the distributed coordinator drives membership changes itself)", ErrBadConfig)
	}
	return nil
}

// WindowReport is one executed window as a worker reports it: the per-engine
// counters of its local engines (full-length arrays, non-local slots zero),
// the cross-engine outbox in wire form, and the worker's telemetry share.
type WindowReport struct {
	Events  []int64
	Charges []int64
	Remote  []int64
	Queue   []int64
	Outbox  []WireEvent
	// Telemetry carries the owned matrix rows every window and the full
	// slow-cadence state when the window crossed a measurement-window
	// boundary; nil when telemetry is disabled.
	Telemetry *telemetry.Partial
}

// DistState is a worker's final state contribution: per-engine kernel
// counters plus every emulation slot the worker's engines own (link
// counters and drops summed elementwise across workers; a flow's completion
// time is taken from its destination engine's owner).
type DistState struct {
	Engines     []int
	Events      []int64
	Charges     []int64
	RemoteSends []int64
	LinkBytes   []int64 // flattened [2*link+dir]
	Drops       []int64 // flattened [2*link+dir]
	FCTs        []float64
	Telemetry   *telemetry.Partial
}

// DistLocal runs a subset of engines on one worker process. Every worker
// rebuilds the identical emulation from the shipped scenario, seeds only the
// flows starting on its engines (preserving the per-LP sequence streams),
// and steps its engines under the coordinator's window commands.
type DistLocal struct {
	e          *emulation
	kernel     *des.Kernel
	stepper    *des.Stepper
	engines    []int
	localSet   []bool
	lastBucket int
	ckpt       *checkpointState
	ckpts      int
	// rep and injectBuf are per-window scratch reused across calls: the
	// WindowReport Step returns is valid until the next Step, and Inject
	// decodes the whole barrier batch into injectBuf before a single bulk
	// push into the stepper.
	rep       WindowReport
	injectBuf []des.Sent
	// busy aliases the stepper's per-LP wall timing for the last window; nil
	// unless EnableTiming was called.
	busy []float64
}

// NewDistLocal builds the worker-side engine runtime for the given local
// engines. tel may be nil (telemetry disabled run).
func NewDistLocal(cfg Config, engines []int, tel *telemetry.Collector) (*DistLocal, error) {
	if err := checkDistConfig(&cfg); err != nil {
		return nil, err
	}
	o := runOptions{tel: tel}
	e, err := prepare(&cfg, &o)
	if err != nil {
		return nil, err
	}
	kernel, err := des.New(e.kernelConfig())
	if err != nil {
		return nil, err
	}
	localSet := make([]bool, cfg.NumEngines)
	for _, eng := range engines {
		if eng < 0 || eng >= cfg.NumEngines {
			return nil, fmt.Errorf("%w: local engine %d out of range [0,%d)", ErrBadConfig, eng, cfg.NumEngines)
		}
		localSet[eng] = true
	}
	if err = e.seed(kernel, localSet); err != nil {
		return nil, err
	}
	stepper, err := kernel.Stepper(engines)
	if err != nil {
		return nil, err
	}
	return &DistLocal{
		e: e, kernel: kernel, stepper: stepper,
		engines: append([]int(nil), engines...), localSet: localSet,
	}, nil
}

// Lookahead returns the synchronization window width this worker derived —
// the coordinator cross-checks it against its own during the handshake.
func (d *DistLocal) Lookahead() float64 { return d.e.lookahead }

// EnableTiming turns on per-engine wall-clock window timing so
// AppendComputeSpans can report measured compute spans. Off by default —
// untraced workers take no clock readings.
func (d *DistLocal) EnableTiming() { d.stepper.EnableTiming() }

// AppendComputeSpans appends one wall-clock compute span per local engine
// active in the window just stepped (same activity rule as the coordinator's
// modeled spans: nonzero charges or remote sends). The coordinator overlays
// these measured durations onto its deterministic modeled spans; they never
// influence the result path.
func (d *DistLocal) AppendComputeSpans(dst []obs.Span, T, end float64) []obs.Span {
	if d.busy == nil {
		return dst
	}
	for _, eng := range d.engines {
		if d.rep.Charges[eng] == 0 && d.rep.Remote[eng] == 0 {
			continue
		}
		dst = append(dst, obs.Span{
			Kind: obs.SpanCompute, Engine: eng, Start: T, End: end, Wall: d.busy[eng],
		})
	}
	return dst
}

// Vote returns the earliest pending local event time (the barrier vote).
func (d *DistLocal) Vote() (float64, bool) { return d.stepper.NextEventTime() }

// Inject delivers barrier-merged events, already in global merge order. The
// whole batch is decoded first, then pushed in one stepper call — order
// within the batch is preserved, so sequence assignment is unchanged.
func (d *DistLocal) Inject(evs []WireEvent) error {
	d.injectBuf = d.injectBuf[:0]
	for _, w := range evs {
		s, err := d.e.decodeWire(w)
		if err != nil {
			return err
		}
		d.injectBuf = append(d.injectBuf, s)
	}
	return d.stepper.Inject(d.injectBuf)
}

// Step executes one window on the local engines and reports its counters,
// outbox and telemetry share. A handler error (including a poisoned run from
// a malformed event) is returned, not panicked. The returned report reuses
// per-window scratch buffers and is only valid until the next Step call —
// callers that retain it across windows must copy.
func (d *DistLocal) Step(T, end float64) (*WindowReport, error) {
	res, err := d.stepper.Step(T, end)
	if err != nil {
		return nil, err
	}
	d.busy = res.Busy
	r := &d.rep
	r.Events = append(r.Events[:0], res.Events...)
	r.Charges = append(r.Charges[:0], res.Charges...)
	r.Remote = append(r.Remote[:0], res.Remote...)
	r.Queue = append(r.Queue[:0], res.Queue...)
	r.Outbox = r.Outbox[:0]
	r.Telemetry = nil
	for _, s := range res.Outbox {
		w, err := d.e.encodeSent(s)
		if err != nil {
			return nil, err
		}
		r.Outbox = append(r.Outbox, w)
	}
	if d.e.tel != nil {
		// Ship slow-cadence state exactly when the in-process Commit would
		// republish it: when this window crosses a measurement-window
		// (BucketWidth) boundary.
		crossed := int(end/d.e.cfg.BucketWidth) > d.lastBucket
		r.Telemetry = d.e.tel.ExportPartial(d.engines, crossed)
		if crossed {
			d.lastBucket = int(end / d.e.cfg.BucketWidth)
		}
	}
	return r, nil
}

// Checkpoint snapshots the worker's engines at a barrier — the same
// emulation+kernel snapshot the in-process crash-recovery path takes, driven
// here by the coordinator's checkpoint cadence so a future rollback has a
// consistent global cut to return to.
func (d *DistLocal) Checkpoint(at float64) int {
	d.ckpt = d.e.snapshot(d.kernel.Checkpoint(at))
	d.ckpts++
	return d.ckpts
}

// Final exports the worker's end-of-run state contribution.
func (d *DistLocal) Final() *DistState {
	stats := d.stepper.Stats()
	st := &DistState{
		Engines:     append([]int(nil), d.engines...),
		Events:      append([]int64(nil), stats.Events...),
		Charges:     append([]int64(nil), stats.Charges...),
		RemoteSends: append([]int64(nil), stats.RemoteSends...),
		LinkBytes:   make([]int64, 2*len(d.e.linkBytes)),
		Drops:       make([]int64, 2*len(d.e.drops)),
		FCTs:        append([]float64(nil), d.e.fcts...),
	}
	for l := range d.e.linkBytes {
		st.LinkBytes[2*l] = d.e.linkBytes[l][0]
		st.LinkBytes[2*l+1] = d.e.linkBytes[l][1]
		st.Drops[2*l] = d.e.drops[l][0]
		st.Drops[2*l+1] = d.e.drops[l][1]
	}
	if d.e.tel != nil {
		st.Telemetry = d.e.tel.ExportPartial(d.engines, true)
	}
	return st
}

// DistMerge is the coordinator's half: it owns the barrier bookkeeping and
// the observation plane (time model, telemetry, recorders) and assembles the
// final Result from the workers' state contributions.
type DistMerge struct {
	e     *emulation
	stats *des.Stats
	// active flags the engines currently in the run's membership; resizes
	// update it, and Finalize only requires coverage of active engines.
	active []bool
}

// NewDistMerge builds the coordinator-side merge state. Options carry the
// run's observability (recorders, stats, telemetry, context) exactly as for
// Run.
func NewDistMerge(cfg Config, opts ...Option) (*DistMerge, error) {
	if err := checkDistConfig(&cfg); err != nil {
		return nil, err
	}
	var o runOptions
	o.apply(opts)
	e, err := prepare(&cfg, &o)
	if err != nil {
		return nil, err
	}
	n := cfg.NumEngines
	m := &DistMerge{
		e: e,
		stats: &des.Stats{
			Events:      make([]int64, n),
			Charges:     make([]int64, n),
			RemoteSends: make([]int64, n),
		},
		active: make([]bool, n),
	}
	for i := range m.active {
		m.active[i] = true
	}
	if e.rec != nil {
		e.rec.RecordRun(obs.RunMeta{LPs: n, Lookahead: e.lookahead})
	}
	return m, nil
}

// Lookahead returns the synchronization window width.
func (m *DistMerge) Lookahead() float64 { return m.e.lookahead }

// Trace returns the run's tracing timeline, nil when tracing is off — the
// transport layer uses it to map engines onto worker slots and to merge
// worker-measured wall spans.
func (m *DistMerge) Trace() *obs.Timeline { return m.e.trace }

// RecordEvent forwards a lifecycle event to the run's recorder chain. The
// transport layer reports live membership churn (worker joins, drains,
// heartbeat losses) through it; all fields must be virtual-time quantities
// so recorded traces stay deterministic.
func (m *DistMerge) RecordEvent(ev obs.Event) { m.e.recordEvent(ev) }

// NoteClusterSize records an active engine-set size with the run's stats
// collector (peak-cluster accounting across elastic resizes).
func (m *DistMerge) NoteClusterSize(n int) {
	if m.e.runStats != nil {
		m.e.runStats.NoteClusterSize(n)
	}
}

// EndTime returns the configured truncation time (0 = none).
func (m *DistMerge) EndTime() float64 { return m.e.cfg.EndTime }

// Canceled returns the context error when the run's context is done.
func (m *DistMerge) Canceled() error {
	if m.e.ctx != nil {
		return m.e.ctx.Err()
	}
	return nil
}

// Skip accounts idle virtual time jumped over between busy windows.
func (m *DistMerge) Skip(dt float64) { m.stats.SkippedTime += dt }

// CommitWindow folds one executed window from the workers' reports:
// telemetry partials install first (so Commit sees the post-window matrix,
// as in-process), then the window observer replays with the merged charges,
// then recorders. The reports together cover every engine exactly once.
func (m *DistMerge) CommitWindow(T, end float64, reports []*WindowReport) error {
	n := m.e.cfg.NumEngines
	charges := make([]int64, n)
	remote := make([]int64, n)
	events := make([]int64, n)
	queue := make([]int64, n)
	var parts []*telemetry.Partial
	for _, r := range reports {
		if r == nil {
			return fmt.Errorf("emu: missing window report")
		}
		if len(r.Charges) != n || len(r.Remote) != n || len(r.Events) != n || len(r.Queue) != n {
			return fmt.Errorf("emu: window report sized for %d engines, want %d", len(r.Charges), n)
		}
		for lp := 0; lp < n; lp++ {
			charges[lp] += r.Charges[lp]
			remote[lp] += r.Remote[lp]
			events[lp] += r.Events[lp]
			queue[lp] += r.Queue[lp]
		}
		if r.Telemetry != nil {
			parts = append(parts, r.Telemetry)
		}
	}
	if m.e.tel != nil && len(parts) > 0 {
		if err := m.e.tel.InstallPartials(parts); err != nil {
			return err
		}
	}
	m.e.observe(T, end, charges, remote)
	for lp := 0; lp < n; lp++ {
		m.stats.Events[lp] += events[lp]
		m.stats.Charges[lp] += charges[lp]
		m.stats.RemoteSends[lp] += remote[lp]
	}
	if m.e.rec != nil {
		// Queue depths are the workers' post-window (pre-merge) occupancy —
		// the merge happens on the coordinator after the report is cut.
		m.e.rec.RecordWindow(obs.Window{
			Index: m.stats.Windows, Start: T, End: end,
			Events: events, Charges: charges, Remote: remote,
			Queue: queue,
		})
	}
	m.stats.Windows++
	m.stats.VirtualEnd = end
	return nil
}

// Finalize merges the workers' final states and assembles the Result,
// verifying the per-engine kernel counters against the coordinator's own
// window accounting (a cheap end-to-end protocol integrity check). wall is
// the coordinator-measured elapsed time.
func (m *DistMerge) Finalize(states []*DistState, wall time.Duration) (*Result, error) {
	e := m.e
	n := e.cfg.NumEngines
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	var parts []*telemetry.Partial
	for si, st := range states {
		if st == nil {
			return nil, fmt.Errorf("emu: missing final state from worker %d", si)
		}
		for _, eng := range st.Engines {
			if eng < 0 || eng >= n || owner[eng] >= 0 {
				return nil, fmt.Errorf("emu: final states do not partition the engines (engine %d)", eng)
			}
			owner[eng] = si
			if st.Events[eng] != m.stats.Events[eng] || st.Charges[eng] != m.stats.Charges[eng] ||
				st.RemoteSends[eng] != m.stats.RemoteSends[eng] {
				return nil, fmt.Errorf("emu: engine %d counters diverge between worker %d and coordinator", eng, si)
			}
		}
		if len(st.LinkBytes) != 2*len(e.linkBytes) || len(st.Drops) != 2*len(e.drops) {
			return nil, fmt.Errorf("emu: final state link arrays sized for %d links, want %d",
				len(st.LinkBytes)/2, len(e.linkBytes))
		}
		if len(st.FCTs) != len(e.fcts) {
			return nil, fmt.Errorf("emu: final state covers %d flows, want %d", len(st.FCTs), len(e.fcts))
		}
		for l := range e.linkBytes {
			e.linkBytes[l][0] += st.LinkBytes[2*l]
			e.linkBytes[l][1] += st.LinkBytes[2*l+1]
			e.drops[l][0] += st.Drops[2*l]
			e.drops[l][1] += st.Drops[2*l+1]
		}
		if st.Telemetry != nil {
			parts = append(parts, st.Telemetry)
		}
	}
	for eng, si := range owner {
		if si < 0 && m.active[eng] {
			return nil, fmt.Errorf("emu: no final state covers active engine %d", eng)
		}
	}
	// A flow's completion time is written by its destination node's engine.
	for i, f := range e.flows {
		e.fcts[i] = states[owner[e.assignment[f.dst]]].FCTs[i]
	}
	if e.tel != nil && len(parts) > 0 {
		if err := e.tel.InstallPartials(parts); err != nil {
			return nil, err
		}
	}
	m.stats.WallTime = wall
	return e.buildResult(m.stats, nil), nil
}
