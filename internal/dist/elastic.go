package dist

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/obs"
)

// Elastic membership: the coordinator admits workers joining a running
// emulation, releases workers asking to drain, and fail-stops workers that
// go silent — all without giving up the byte-identical-results guarantee.
// Engines never move between workers; the kernel's engine count is the
// capacity, and worker slot s owns the fixed block of EnginesPerWorker
// engines starting at s*EnginesPerWorker. A join activates a block, a drain
// deactivates one, and every membership change repartitions the virtual
// nodes over the new active set at a checkpoint-cadence barrier via the
// EXPORT/INSTALL protocol (see emu.DistMerge.Resize). The applied changes
// are returned as a MembershipLog whose replay through emu.Config.Elastic
// reproduces the run in-process, bit for bit.

// ElasticOptions tunes an elastic coordinator run.
type ElasticOptions struct {
	Options
	// Joins delivers connections of workers asking to join mid-run. They are
	// handshaken as they arrive and installed at the next checkpoint-cadence
	// barrier. Nil means no joins.
	Joins <-chan Conn
	// HeartbeatInterval probes silent workers with PING during every
	// coordinator wait; HeartbeatMisses consecutive unanswered intervals
	// declare the worker lost without waiting out the full StepTimeout.
	// <= 0 disables probing (losses then surface at StepTimeout).
	HeartbeatInterval time.Duration
	// HeartbeatMisses is the consecutive-miss threshold (default 3).
	HeartbeatMisses int
	// EnginesPerWorker is the engine block size per worker slot (default 1).
	// NumEngines must be a multiple of it.
	EnginesPerWorker int
	// OnResize computes the post-change node→engine assignment for every
	// membership change. Required.
	OnResize func(ev emu.ResizeEvent) ([]int, error)
}

// MembershipLog records what the elastic run actually did: the applied
// membership changes, and — when the run degraded — the engine fail-stops
// the lost worker mapped to. Replaying Resizes through emu.Config.Elastic
// (plus Losses through faults.Schedule) reproduces the run in-process.
type MembershipLog struct {
	Resizes []emu.AppliedResize
	Losses  []faults.Crash
}

type elasticState struct {
	spec     *RunSpec
	opt      *ElasticOptions
	q        int
	maxSlots int
	log      *MembershipLog
	merge    *emu.DistMerge

	members []*member // active, in admission order
	pending []*member // handshaken joiners awaiting the next barrier
	bySlot  []*member

	lastResizeAt float64
	curL         float64
}

func (s *elasticState) block(slot int) []int {
	b := make([]int, s.q)
	for i := range b {
		b[i] = slot*s.q + i
	}
	return b
}

// RunElastic drives one distributed run with elastic membership. workers are
// the initial members (slot w for worker w); opt.Joins feeds mid-run
// joiners; workers leave gracefully via DRAIN or abruptly by dying — an
// abrupt loss degrades to the in-process recovery replay exactly as Run
// does, with the membership changes applied so far replayed first.
//
// The returned Result is byte-identical to emu.Run of the same scenario
// with Config.Elastic set to the returned MembershipLog.Resizes.
func RunElastic(ctx context.Context, spec *RunSpec, workers []Conn, opt ElasticOptions) (*emu.Result, *MembershipLog, error) {
	opt.Options.defaults()
	if opt.HeartbeatMisses <= 0 {
		opt.HeartbeatMisses = 3
	}
	if opt.EnginesPerWorker <= 0 {
		opt.EnginesPerWorker = 1
	}
	if opt.OnResize == nil {
		return nil, nil, fmt.Errorf("dist: elastic run needs an OnResize policy")
	}
	if len(workers) == 0 {
		return nil, nil, fmt.Errorf("dist: no workers")
	}
	if spec.Cfg.OnCrash != nil {
		return nil, nil, fmt.Errorf("dist: set OnWorkerLoss, not Cfg.OnCrash (crash hooks do not ship)")
	}
	if err := emu.NormalizeConfig(&spec.Cfg); err != nil {
		return nil, nil, err
	}
	q := opt.EnginesPerWorker
	n := spec.Cfg.NumEngines
	if n%q != 0 {
		return nil, nil, fmt.Errorf("dist: %d engines not divisible into blocks of %d", n, q)
	}
	maxSlots := n / q
	if len(workers) > maxSlots {
		return nil, nil, fmt.Errorf("dist: %d workers for %d slots of %d engines", len(workers), maxSlots, q)
	}
	for v, eng := range spec.Cfg.Assignment {
		if eng >= len(workers)*q {
			return nil, nil, fmt.Errorf("dist: node %d assigned to engine %d outside the initial %d-worker membership",
				v, eng, len(workers))
		}
	}

	s := &elasticState{
		spec: spec, opt: &opt, q: q, maxSlots: maxSlots,
		log:    &MembershipLog{},
		bySlot: make([]*member, maxSlots),
	}
	res, err := s.run(ctx, workers)
	if err == nil {
		return res, s.log, nil
	}
	s.abort(err.Error())
	lost, ok := err.(*workerLost)
	if !ok {
		return nil, nil, err
	}
	if spec.OnWorkerLoss == nil {
		return nil, nil, fmt.Errorf("%w (no OnWorkerLoss recovery configured)", lost)
	}
	if s.merge != nil {
		// The kill reaches external recorders before the replay starts; the
		// replay's own emulation never sees the silent worker.
		misses := 1.0
		if opt.HeartbeatInterval > 0 {
			misses = float64(opt.HeartbeatMisses)
		}
		s.merge.RecordEvent(obs.Event{Kind: obs.EventHeartbeatMiss, Time: lost.at,
			LP: lost.worker * s.q, Value: misses})
	}
	opt.logf("dist: %v; degrading to in-process recovery replay", lost)
	res, err = s.fallback(lost)
	if err != nil {
		return nil, nil, err
	}
	return res, s.log, nil
}

func (s *elasticState) abort(reason string) {
	for _, m := range s.members {
		_ = m.conn.Send(Frame{Type: MsgAbort, Payload: TextMsg{Text: reason}.Encode()})
		_ = m.conn.Close()
	}
	for _, m := range s.pending {
		_ = m.conn.Send(Frame{Type: MsgAbort, Payload: TextMsg{Text: reason}.Encode()})
		_ = m.conn.Close()
	}
	s.members, s.pending = nil, nil
}

func (s *elasticState) run(ctx context.Context, initial []Conn) (res *emu.Result, err error) {
	opt := s.opt
	// Stamp worker-loss errors with the virtual time the loss maps to, as in
	// the static coordinator.
	virtT, virtL := 0.0, 0.0
	defer func() {
		if l, ok := err.(*workerLost); ok {
			l.at = virtT + virtL/2
		}
	}()
	cfg := s.spec.Cfg // normalized by RunElastic

	blob, err := EncodeSpec(&Spec{Cfg: cfg, Routing: s.spec.Routing,
		Telemetry: s.spec.Telemetry != nil, Tracing: s.spec.Trace != nil})
	if err != nil {
		return nil, err
	}
	hash := SpecHash(blob)

	opts := append([]emu.Option(nil), s.spec.EmuOpts...)
	if s.spec.Telemetry != nil {
		opts = append(opts, emu.WithTelemetry(s.spec.Telemetry))
	}
	if s.spec.Trace != nil {
		opts = append(opts, emu.WithTrace(s.spec.Trace))
	}
	if ctx != nil {
		opts = append(opts, emu.WithContext(ctx))
	}
	merge, err := emu.NewDistMerge(cfg, opts...)
	if err != nil {
		return nil, err
	}
	s.merge = merge
	// Only the initial workers' engine blocks are live; the rest of the
	// capacity activates as joiners install.
	var liveEngines []int
	for w := range initial {
		liveEngines = append(liveEngines, s.block(w)...)
	}
	merge.Activate(liveEngines)
	start := time.Now()
	initialL := merge.Lookahead()

	// Slot → engine-block ownership is fixed for the whole run, so the
	// timeline's worker map can cover every slot up front — joiners included.
	tl := merge.Trace()
	if tl != nil {
		for slot := 0; slot < s.maxSlots; slot++ {
			tl.Assign(s.block(slot), slot)
		}
	}
	if s.spec.Health != nil {
		s.spec.Health.SetWorkers(len(initial))
	}

	var hb *heartbeat
	if opt.HeartbeatInterval > 0 {
		hb = &heartbeat{interval: opt.HeartbeatInterval, misses: opt.HeartbeatMisses}
	}
	// A DRAIN can land at any point — even mid-handshake, before the member
	// exists. earlyDrain parks those so the request is never lost.
	earlyDrain := make(map[int]bool)
	onDrain := func(slot int) {
		if m := s.bySlot[slot]; m != nil {
			if !m.draining {
				m.draining = true
				opt.logf("dist: worker slot %d requested drain", slot)
			}
			return
		}
		earlyDrain[slot] = true
	}
	admit := func(m *member) {
		s.bySlot[m.slot] = m
		if earlyDrain[m.slot] {
			delete(earlyDrain, m.slot)
			m.draining = true
			opt.logf("dist: worker slot %d requested drain", m.slot)
		}
	}
	// Every coordinator wait may absorb drain requests, worker trace spans
	// (stamped with the sender's slot) and heartbeat round trips.
	hooks := recvHooks{onDrain: onDrain}
	if tl != nil {
		hooks.onSpans = func(w int, spans []obs.Span) {
			for i := range spans {
				spans[i].Worker = w
			}
			tl.AddWall(spans)
		}
	}
	if health := s.spec.Health; health != nil {
		hooks.onRTT = func(w int, rtt time.Duration) { health.ObserveRTT(w, rtt) }
	}
	bar := newBarrier(merge, cfg.NumEngines, func(m *member) (Frame, error) {
		return recvHooked(m.conn, m.slot, opt.StepTimeout, hb, hooks)
	}, s.spec.Health)

	// handshake admits one worker onto a slot. Every worker — initial or
	// joiner — receives the same original spec; a joiner's engines are
	// inactive under the original assignment, so it seeds nothing and waits
	// for its INSTALL.
	handshake := func(conn Conn, slot int) (*member, error) {
		f, err := recvFromHB(conn, slot, opt.HandshakeTimeout, nil, onDrain)
		if err != nil {
			return nil, err
		}
		if f.Type != MsgHello {
			return nil, &workerLost{worker: slot, err: fmt.Errorf("expected HELLO, got %s", f.Type)}
		}
		h, err := DecodeHello(f.Payload)
		if err != nil {
			return nil, &workerLost{worker: slot, err: err}
		}
		if h.Version != Version {
			return nil, fmt.Errorf("dist: worker slot %d speaks protocol %d, this build speaks %d", slot, h.Version, Version)
		}
		m := &member{conn: conn, slot: slot, engines: s.block(slot)}
		as := Assign{Version: Version, WorkerID: slot, Workers: s.maxSlots, Engines: m.engines, Hash: hash, Spec: blob}
		if err = sendTo(conn, slot, Frame{Type: MsgAssign, Payload: as.Encode()}); err != nil {
			return nil, err
		}
		f, err = recvFromHB(conn, slot, opt.HandshakeTimeout, nil, onDrain)
		if err != nil {
			return nil, err
		}
		if f.Type != MsgReady {
			return nil, &workerLost{worker: slot, err: fmt.Errorf("expected READY, got %s", f.Type)}
		}
		r, err := DecodeReady(f.Payload)
		if err != nil {
			return nil, &workerLost{worker: slot, err: err}
		}
		if r.Hash != hash {
			return nil, fmt.Errorf("dist: worker slot %d rebuilt a different scenario (spec hash mismatch)", slot)
		}
		if math.Float64bits(r.Lookahead) != math.Float64bits(initialL) {
			return nil, fmt.Errorf("dist: worker slot %d derived lookahead %g, coordinator %g — builds disagree",
				slot, r.Lookahead, initialL)
		}
		return m, nil
	}

	for w, conn := range initial {
		m, err := handshake(conn, w)
		if err != nil {
			return nil, err
		}
		s.members = append(s.members, m)
		admit(m)
	}
	opt.logf("dist: %d workers ready, %d engine slots of %d, lookahead %g",
		len(s.members), s.maxSlots, s.q, initialL)

	// admitJoins handshakes joiners as they arrive; a joiner that fails its
	// handshake (or arrives with no free slot) is rejected without touching
	// the run.
	admitJoins := func() {
		if opt.Joins == nil {
			return
		}
		for {
			select {
			case conn, ok := <-opt.Joins:
				if !ok {
					opt.Joins = nil
					return
				}
				slot := -1
				for i := 0; i < s.maxSlots; i++ {
					if s.bySlot[i] == nil {
						slot = i
						break
					}
				}
				if slot < 0 {
					opt.logf("dist: rejecting joiner: no free engine slot")
					_ = conn.Send(Frame{Type: MsgAbort, Payload: TextMsg{Text: "no free engine slot"}.Encode()})
					_ = conn.Close()
					continue
				}
				m, err := handshake(conn, slot)
				if err != nil {
					opt.logf("dist: rejecting joiner for slot %d: %v", slot, err)
					_ = conn.Send(Frame{Type: MsgAbort, Payload: TextMsg{Text: err.Error()}.Encode()})
					_ = conn.Close()
					continue
				}
				opt.logf("dist: joiner admitted on slot %d (engines %v), installing at next barrier", slot, m.engines)
				s.pending = append(s.pending, m)
				admit(m)
			default:
				return
			}
		}
	}

	// The window loop, as in the static coordinator (see barrier), with one
	// addition: at a checkpoint-cadence barrier with pending joins or
	// drains, the held outbox is delivered, every member's state is
	// exported, the nodes are repartitioned over the new membership, and
	// execution resumes on a fresh window grid after a new opening vote —
	// exactly the sequence the in-process elastic path performs at that
	// barrier.
	s.curL, virtL = initialL, initialL
	bar.seat(s.members, initialL)
	if err := bar.open(s.members); err != nil {
		return nil, err
	}
	endTime := merge.EndTime()
	nextCkpt := opt.CheckpointEvery
	for {
		if err := merge.Canceled(); err != nil {
			return nil, fmt.Errorf("dist: run canceled: %w", err)
		}
		admitJoins()
		T, end, ok := bar.next(endTime)
		if !ok {
			break
		}
		if err := bar.window(s.members, T, end); err != nil {
			return nil, err
		}
		virtT = T

		if end >= nextCkpt {
			admitJoins() // a join raced the window: fold it into this barrier
			changing := len(s.pending) > 0
			for _, m := range s.members {
				if m.draining {
					changing = true
				}
			}
			if changing {
				newL, err := s.resizeBarrier(merge, bar, end)
				if err != nil {
					return nil, err
				}
				s.curL, virtL = newL, newL
				bar.seat(s.members, newL)
				if err := bar.open(s.members); err != nil {
					return nil, err
				}
			} else if err := bar.checkpoint(s.members, end); err != nil {
				return nil, err
			}
			for nextCkpt <= end {
				nextCkpt += opt.CheckpointEvery
			}
		}
	}

	opt.logf("dist: elastic window loop complete, collecting %d final states", len(s.members))
	return bar.finish(s.members, s.pending, start)
}

// resizeBarrier applies the pending membership change at barrier time end:
// held events are delivered to their current owners (so exports capture the
// post-merge state, as the in-process checkpoint does), every member's state
// is exported, the new assignment is computed and installed, drained members
// are released, and joiners become members. Returns the new window width.
func (s *elasticState) resizeBarrier(merge *emu.DistMerge, bar *barrier, end float64) (float64, error) {
	opt := s.opt

	// The held outbox goes to the OLD owners first; the votes are
	// meaningless mid-resize, and the opening vote after the install
	// replaces them.
	if err := bar.open(s.members); err != nil {
		return 0, err
	}

	// Export every current member, draining ones included — their state
	// must land somewhere before they leave.
	if err := broadcast(s.members, Frame{Type: MsgExport, Payload: ExportMsg{At: end}.Encode()}); err != nil {
		return 0, err
	}
	exports := make([]*emu.ElasticExport, len(s.members))
	err := bar.gather(s.members, MsgExport, func(i int, p []byte) error {
		ex, err := DecodeElasticExport(p)
		exports[i] = ex
		return err
	})
	if err != nil {
		return 0, err
	}

	// The new membership: continuing members keep their admission order,
	// joiners append after them.
	var continuing, leaving []*member
	for _, m := range s.members {
		if m.draining {
			leaving = append(leaving, m)
		} else {
			continuing = append(continuing, m)
		}
	}
	continuing = append(continuing, s.pending...)
	if len(continuing) == 0 {
		return 0, fmt.Errorf("dist: every worker drained — no membership left at t=%g", end)
	}
	var engines []int
	groups := make([][]int, len(continuing))
	for i, m := range continuing {
		engines = append(engines, m.engines...)
		groups[i] = m.engines
	}
	sort.Ints(engines)

	assignment, err := opt.OnResize(emu.ResizeEvent{
		At:       end,
		Engines:  append([]int(nil), engines...),
		Previous: merge.Assignment(),
		Loads:    merge.Loads(),
	})
	if err != nil {
		return 0, fmt.Errorf("dist: resize policy at t=%g: %w", end, err)
	}
	installs, newL, err := merge.Resize(end, exports, engines, assignment, groups)
	if err != nil {
		return 0, err
	}

	for i, m := range continuing {
		if err := sendTo(m.conn, m.slot, Frame{Type: MsgInstall, Payload: EncodeElasticInstall(installs[i])}); err != nil {
			return 0, err
		}
	}
	acks := make([]InstallAck, len(continuing))
	if err := bar.gather(continuing, MsgInstallAck, func(i int, p []byte) error {
		ack, err := DecodeInstallAck(p)
		acks[i] = ack
		return err
	}); err != nil {
		return 0, err
	}
	for i, m := range continuing {
		if math.Float64bits(acks[i].Lookahead) != math.Float64bits(newL) {
			return 0, fmt.Errorf("dist: worker slot %d acked lookahead %g, coordinator computed %g — builds disagree",
				m.slot, acks[i].Lookahead, newL)
		}
	}

	// Release the drained members; their state now lives on the continuing
	// ones. A send failure here is harmless — they are already out.
	for _, m := range leaving {
		_ = m.conn.Send(Frame{Type: MsgBye})
		_ = m.conn.Close()
		s.bySlot[m.slot] = nil
	}

	// Churn accounting: each joiner and leaver is recorded against the first
	// engine of its block, mirroring the in-process elastic event stream.
	for _, m := range s.pending {
		merge.RecordEvent(obs.Event{Kind: obs.EventJoin, Time: end, LP: m.engines[0], Value: 1})
	}
	for _, m := range leaving {
		merge.RecordEvent(obs.Event{Kind: obs.EventDrain, Time: end, LP: m.engines[0], Value: 1})
	}
	if s.spec.Health != nil {
		s.spec.Health.SetWorkers(len(continuing))
	}

	s.members = continuing
	s.pending = nil
	s.lastResizeAt = end
	s.log.Resizes = merge.AppliedResizes()
	opt.logf("dist: membership now %d workers (%d engines) at t=%g, lookahead %g",
		len(s.members), len(engines), end, newL)
	return newL, nil
}

// fallback replays the scenario in-process: the membership changes applied
// so far re-apply through Config.Elastic, and the lost worker's engines
// fail-stop just after the last of them, flowing through the standard
// checkpoint/rollback/remap recovery.
func (s *elasticState) fallback(lost *workerLost) (*emu.Result, error) {
	cfg := s.spec.Cfg
	at := lost.at
	if at <= s.lastResizeAt {
		// The loss raced a membership barrier: the crash must land after the
		// resize it cannot undo.
		at = s.lastResizeAt + s.curL/4
	}
	if at <= 0 {
		at = math.SmallestNonzeroFloat64
	}
	sched := &faults.Schedule{}
	if cfg.Faults != nil {
		// Straggler/degradation schedules are part of the scenario's cost
		// model; the replay must keep them or diverge from a loss-free run.
		sched.Stragglers = append(sched.Stragglers, cfg.Faults.Stragglers...)
		sched.Degradations = append(sched.Degradations, cfg.Faults.Degradations...)
	}
	for _, e := range s.block(lost.worker) {
		sched.Crashes = append(sched.Crashes, faults.Crash{Engine: e, At: at})
	}
	s.log.Losses = append(s.log.Losses, sched.Crashes...)
	cfg.Faults = sched
	cfg.OnCrash = s.spec.OnWorkerLoss
	cfg.CheckpointEvery = s.opt.CheckpointEvery
	if len(s.log.Resizes) > 0 {
		cfg.Elastic = make([]emu.Resize, len(s.log.Resizes))
		for i, r := range s.log.Resizes {
			cfg.Elastic[i] = emu.Resize{At: r.At, Engines: r.Engines, Assignment: r.Assignment}
		}
	}
	opts := append([]emu.Option(nil), s.spec.EmuOpts...)
	if s.spec.Telemetry != nil {
		opts = append(opts, emu.WithTelemetry(s.spec.Telemetry))
	}
	if s.spec.Trace != nil {
		// The replay re-executes every window from zero in-process; the
		// partial distributed timeline would double-count them.
		s.spec.Trace.Reset()
		opts = append(opts, emu.WithTrace(s.spec.Trace))
	}
	return emu.Run(cfg, opts...)
}
