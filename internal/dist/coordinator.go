package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// RunSpec is everything the coordinator needs to drive one distributed run.
type RunSpec struct {
	// Cfg is the scenario; it is normalized in place before shipping.
	// Straggler/degradation schedules in Cfg.Faults ship with the spec;
	// crash schedules are rejected (EncodeSpec), and OnCrash must be nil —
	// worker-loss recovery supplies its own remapper via OnWorkerLoss.
	Cfg emu.Config
	// Routing tells workers which route-oracle backend to rebuild.
	Routing netgraph.RoutingOptions
	// Telemetry, when non-nil, is the coordinator-side collector the workers'
	// traffic-plane shares merge into (it feeds /metrics and ToProfile
	// exactly as in-process).
	Telemetry *telemetry.Collector
	// EmuOpts carries recorders/stats options for the coordinator's
	// observation plane, as for emu.Run.
	EmuOpts []emu.Option
	// Trace, when non-nil, turns on distributed tracing: workers measure and
	// ship wall-clock spans, and the coordinator merges them with its
	// deterministic modeled spans into this timeline.
	Trace *obs.Timeline
	// Health, when non-nil, receives the live cluster health signal — worker
	// count, per-worker gated windows and critical-path share, window lag,
	// heartbeat RTTs — for the /metrics and /healthz mounts.
	Health *telemetry.ClusterHealth
	// OnWorkerLoss computes the recovery assignment when a worker is lost:
	// the run degrades to the in-process crash-recovery path with the lost
	// worker's engines fail-stopped, and this hook (typically the same
	// RemapSurvivors policy used for injected faults) remaps their nodes
	// onto survivors. When nil, worker loss is fatal.
	OnWorkerLoss func(f emu.EngineFailure) ([]int, error)
}

// Options tunes the coordinator's protocol timing.
type Options struct {
	// HandshakeTimeout bounds HELLO/READY waits per worker (default 30 s).
	HandshakeTimeout time.Duration
	// StepTimeout bounds every in-run worker response — votes, window
	// reports, checkpoint acks, final states (default 60 s). A worker
	// silent past it is treated as lost.
	StepTimeout time.Duration
	// CheckpointEvery is the virtual-time checkpoint cadence (default
	// emu.DefaultCheckpointEvery). Checkpoints give workers a consistent
	// cut; the v1 recovery path replays from time zero in-process, so the
	// cadence here only bounds worker-side snapshot staleness.
	CheckpointEvery float64
	// Logf, when set, receives one line per protocol phase.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 30 * time.Second
	}
	if o.StepTimeout <= 0 {
		o.StepTimeout = 60 * time.Second
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = emu.DefaultCheckpointEvery
	}
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// ErrWorkerLost marks a run that lost a worker (transport failure, protocol
// violation, or heartbeat silence). errors.Is(err, ErrWorkerLost) holds on
// every loss-shaped error the coordinator returns.
var ErrWorkerLost = errors.New("worker lost")

// ErrWorkerFault marks a worker-reported simulation error (an ERROR frame: a
// poisoned run, a malformed event). It is deterministic — a fallback replay
// would hit it again — so the coordinator aborts with it instead of
// degrading.
var ErrWorkerFault = errors.New("worker fault")

// workerLost marks a worker conn failure; it triggers the degradation path
// rather than failing the run outright. at is the virtual time the loss maps
// to (stamped by run as the error propagates out).
type workerLost struct {
	worker int
	err    error
	at     float64
}

func (w *workerLost) Error() string {
	return fmt.Sprintf("dist: worker %d lost: %v", w.worker, w.err)
}
func (w *workerLost) Unwrap() error        { return w.err }
func (w *workerLost) Is(target error) bool { return target == ErrWorkerLost }

// Run drives one distributed run over the given worker connections. Engines
// are dealt round-robin (worker w gets engines w, w+W, ...). On worker loss
// the surviving workers are aborted and the scenario re-runs in-process with
// the lost worker's engines fail-stopped at the loss time, flowing through
// the standard checkpoint/rollback/remap recovery — the run completes
// (Result.Recovery reports it) instead of hanging.
//
// The returned Result is byte-identical to emu.Run of the same scenario
// (modulo Kernel.WallTime and the wall-clock parts of Obs — see ResultJSON).
func Run(ctx context.Context, spec *RunSpec, workers []Conn, opt Options) (*emu.Result, error) {
	opt.defaults()
	if len(workers) == 0 {
		return nil, fmt.Errorf("dist: no workers")
	}
	if spec.Cfg.OnCrash != nil {
		return nil, fmt.Errorf("dist: set OnWorkerLoss, not Cfg.OnCrash (crash hooks do not ship)")
	}
	if err := emu.NormalizeConfig(&spec.Cfg); err != nil {
		return nil, err
	}
	if len(workers) > spec.Cfg.NumEngines {
		return nil, fmt.Errorf("dist: %d workers for %d engines (every worker needs at least one)",
			len(workers), spec.Cfg.NumEngines)
	}

	res, err := run(ctx, spec, workers, &opt)
	if err == nil {
		return res, nil
	}
	lost, ok := err.(*workerLost)
	if !ok {
		abortAll(workers, err.Error())
		return nil, err
	}
	abortAll(workers, lost.Error())
	if spec.OnWorkerLoss == nil {
		return nil, fmt.Errorf("%w (no OnWorkerLoss recovery configured)", lost)
	}
	opt.logf("dist: %v; degrading to in-process recovery run", lost)
	return fallback(spec, lost, len(workers), &opt)
}

func run(ctx context.Context, spec *RunSpec, workers []Conn, opt *Options) (res *emu.Result, err error) {
	// Stamp worker-loss errors with the virtual time the loss maps to: the
	// middle of the window in flight (a conservative kernel can only detect
	// a silent peer at the following barrier, exactly as the fault-injection
	// path models it).
	virtT, virtL := 0.0, 0.0
	defer func() {
		if l, ok := err.(*workerLost); ok {
			l.at = virtT + virtL/2
		}
	}()
	cfg := spec.Cfg // normalized by Run
	W := len(workers)
	n := cfg.NumEngines

	blob, err := EncodeSpec(&Spec{Cfg: cfg, Routing: spec.Routing,
		Telemetry: spec.Telemetry != nil, Tracing: spec.Trace != nil})
	if err != nil {
		return nil, err
	}
	hash := SpecHash(blob)

	opts := append([]emu.Option(nil), spec.EmuOpts...)
	if spec.Telemetry != nil {
		opts = append(opts, emu.WithTelemetry(spec.Telemetry))
	}
	if spec.Trace != nil {
		opts = append(opts, emu.WithTrace(spec.Trace))
	}
	if ctx != nil {
		opts = append(opts, emu.WithContext(ctx))
	}
	merge, err := emu.NewDistMerge(cfg, opts...)
	if err != nil {
		return nil, err
	}
	start := time.Now()

	// Round-robin engine assignment: worker w runs engines w, w+W, ...
	members := make([]*member, W)
	for w, conn := range workers {
		members[w] = &member{conn: conn, slot: w}
	}
	for e := 0; e < n; e++ {
		members[e%W].engines = append(members[e%W].engines, e)
	}
	tl := merge.Trace()
	if tl != nil {
		for _, m := range members {
			tl.Assign(m.engines, m.slot)
		}
	}
	merge.NoteClusterSize(n)
	if spec.Health != nil {
		spec.Health.SetWorkers(W)
	}
	// In-run receives absorb worker SPANS frames into the timeline; the
	// worker slot stamps here (it is implied by the connection on the wire).
	hooks := recvHooks{}
	if tl != nil {
		hooks.onSpans = func(w int, spans []obs.Span) {
			for i := range spans {
				spans[i].Worker = w
			}
			tl.AddWall(spans)
		}
	}
	bar := newBarrier(merge, n, func(m *member) (Frame, error) {
		return recvHooked(m.conn, m.slot, opt.StepTimeout, nil, hooks)
	}, spec.Health)

	// Handshake every worker.
	for _, m := range members {
		f, err := recvFrom(m.conn, m.slot, opt.HandshakeTimeout)
		if err != nil {
			return nil, err
		}
		if f.Type != MsgHello {
			return nil, &workerLost{worker: m.slot, err: fmt.Errorf("expected HELLO, got %s", f.Type)}
		}
		h, err := DecodeHello(f.Payload)
		if err != nil {
			return nil, &workerLost{worker: m.slot, err: err}
		}
		if h.Version != Version {
			return nil, fmt.Errorf("dist: worker %d speaks protocol %d, this build speaks %d", m.slot, h.Version, Version)
		}
		as := Assign{Version: Version, WorkerID: m.slot, Workers: W, Engines: m.engines, Hash: hash, Spec: blob}
		if err := sendTo(m.conn, m.slot, Frame{Type: MsgAssign, Payload: as.Encode()}); err != nil {
			return nil, err
		}
	}
	for _, m := range members {
		f, err := recvFrom(m.conn, m.slot, opt.HandshakeTimeout)
		if err != nil {
			return nil, err
		}
		if f.Type != MsgReady {
			return nil, &workerLost{worker: m.slot, err: fmt.Errorf("expected READY, got %s", f.Type)}
		}
		r, err := DecodeReady(f.Payload)
		if err != nil {
			return nil, &workerLost{worker: m.slot, err: err}
		}
		if r.Hash != hash {
			return nil, fmt.Errorf("dist: worker %d rebuilt a different scenario (spec hash mismatch)", m.slot)
		}
		if math.Float64bits(r.Lookahead) != math.Float64bits(merge.Lookahead()) {
			return nil, fmt.Errorf("dist: worker %d derived lookahead %g, coordinator %g — builds disagree",
				m.slot, r.Lookahead, merge.Lookahead())
		}
	}
	opt.logf("dist: %d workers ready, %d engines, lookahead %g", W, n, merge.Lookahead())

	// The window loop: an opening vote, then one WINDOW/WINDOW_DONE round
	// per window (see barrier), with a checkpoint at every cadence barrier.
	virtL = merge.Lookahead()
	bar.seat(members, virtL)
	if err := bar.open(members); err != nil {
		return nil, err
	}
	endTime := merge.EndTime()
	nextCkpt := opt.CheckpointEvery
	for {
		if err := merge.Canceled(); err != nil {
			return nil, fmt.Errorf("dist: run canceled: %w", err)
		}
		T, end, ok := bar.next(endTime)
		if !ok {
			break
		}
		if err := bar.window(members, T, end); err != nil {
			return nil, err
		}
		virtT = T
		if end >= nextCkpt {
			if err := bar.checkpoint(members, end); err != nil {
				return nil, err
			}
			for nextCkpt <= end {
				nextCkpt += opt.CheckpointEvery
			}
		}
	}

	opt.logf("dist: window loop complete, collecting %d final states", W)
	return bar.finish(members, nil, start)
}

// fallback re-runs the scenario in-process with the lost worker's engines
// fail-stopped at the loss time, letting the standard checkpoint/rollback/
// remap machinery absorb the loss deterministically.
func fallback(spec *RunSpec, lost *workerLost, W int, opt *Options) (*emu.Result, error) {
	cfg := spec.Cfg
	at := lost.at
	if at <= 0 {
		// Loss before the first window (handshake, spec shipping): any
		// positive instant is detected at the first barrier.
		at = math.SmallestNonzeroFloat64
	}
	sched := &faults.Schedule{}
	if cfg.Faults != nil {
		// Keep any straggler/degradation schedule the run was started with —
		// it is part of the scenario's cost model, and dropping it would make
		// the replay diverge from a loss-free run.
		sched.Stragglers = append(sched.Stragglers, cfg.Faults.Stragglers...)
		sched.Degradations = append(sched.Degradations, cfg.Faults.Degradations...)
	}
	for e := lost.worker; e < cfg.NumEngines; e += W {
		sched.Crashes = append(sched.Crashes, faults.Crash{Engine: e, At: at})
	}
	cfg.Faults = sched
	cfg.OnCrash = spec.OnWorkerLoss
	cfg.CheckpointEvery = opt.CheckpointEvery
	opts := append([]emu.Option(nil), spec.EmuOpts...)
	if spec.Telemetry != nil {
		opts = append(opts, emu.WithTelemetry(spec.Telemetry))
	}
	if spec.Trace != nil {
		// The replay re-executes every window from zero in-process; the
		// partial distributed timeline would double-count them.
		spec.Trace.Reset()
		opts = append(opts, emu.WithTrace(spec.Trace))
	}
	return emu.Run(cfg, opts...)
}

func abortAll(workers []Conn, reason string) {
	for _, c := range workers {
		_ = c.Send(Frame{Type: MsgAbort, Payload: TextMsg{Text: reason}.Encode()})
		_ = c.Close()
	}
}

func sendTo(conn Conn, w int, f Frame) error {
	if err := conn.Send(f); err != nil {
		return &workerLost{worker: w, err: err}
	}
	return nil
}

// recvFrom reads one frame from a worker, converting transport failures into
// workerLost. A worker-reported ERROR frame becomes a fatal ErrWorkerFault —
// it is deterministic, so degrading to a replay would only hit it again.
// Liveness pongs and drain requests may interleave with any response and are
// absorbed here (the plain coordinator ignores drain requests; the elastic
// one flags them via onDrain).
func recvFrom(conn Conn, w int, timeout time.Duration) (Frame, error) {
	return recvFromHB(conn, w, timeout, nil, nil)
}

// heartbeat configures liveness probing during coordinator waits: every
// interval without a frame, a PING goes out; misses consecutive unanswered
// intervals declare the worker lost without waiting out the full timeout.
type heartbeat struct {
	interval time.Duration
	misses   int
}

func recvFromHB(conn Conn, w int, timeout time.Duration, hb *heartbeat, onDrain func(int)) (Frame, error) {
	return recvHooked(conn, w, timeout, hb, recvHooks{onDrain: onDrain})
}

// recvHooks routes the out-of-band frames a coordinator wait may absorb:
// drain requests, worker trace spans, and measured PING→PONG round trips.
// Nil hooks drop the corresponding signal (spans still decode, so protocol
// corruption surfaces even when tracing output is unused).
type recvHooks struct {
	onDrain func(w int)
	onSpans func(w int, spans []obs.Span)
	onRTT   func(w int, rtt time.Duration)
}

func recvHooked(conn Conn, w int, timeout time.Duration, hb *heartbeat, hooks recvHooks) (Frame, error) {
	deadline := time.Now().Add(timeout)
	missed := 0
	var lastPing time.Time
	for {
		slice := time.Until(deadline)
		if slice <= 0 {
			return Frame{}, &workerLost{worker: w, err: fmt.Errorf("no response within %v", timeout)}
		}
		if hb != nil && hb.interval > 0 && slice > hb.interval {
			slice = hb.interval
		}
		f, err := conn.Recv(slice)
		if err != nil {
			if isTimeout(err) && time.Now().Before(deadline) {
				if hb == nil || hb.interval <= 0 {
					continue
				}
				missed++
				if missed >= hb.misses {
					return Frame{}, &workerLost{worker: w,
						err: fmt.Errorf("no heartbeat in %d×%v", missed, hb.interval)}
				}
				lastPing = time.Now()
				if err = conn.Send(Frame{Type: MsgPing}); err != nil {
					return Frame{}, &workerLost{worker: w, err: err}
				}
				continue
			}
			return Frame{}, &workerLost{worker: w, err: err}
		}
		switch f.Type {
		case MsgPong:
			missed = 0
			// A pong not answering our ping (a reordered or duplicated frame
			// under chaos transports) carries no timing signal.
			if hooks.onRTT != nil && !lastPing.IsZero() {
				hooks.onRTT(w, time.Since(lastPing))
				lastPing = time.Time{}
			}
			continue
		case MsgSpans:
			missed = 0
			spans, err := DecodeSpans(f.Payload)
			if err != nil {
				return Frame{}, &workerLost{worker: w, err: err}
			}
			if hooks.onSpans != nil {
				hooks.onSpans(w, spans)
			}
			continue
		case MsgDrain:
			missed = 0
			if hooks.onDrain != nil {
				hooks.onDrain(w)
			}
			continue
		case MsgError:
			m, _ := DecodeText(f.Payload)
			return Frame{}, fmt.Errorf("dist: worker %d aborted the run: %w: %s", w, ErrWorkerFault, m.Text)
		}
		return f, nil
	}
}
