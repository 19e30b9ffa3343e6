package emu

import (
	"errors"
	"fmt"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netflow"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// DefaultCheckpointEvery is the default virtual-time interval between
// barrier checkpoints when crash faults are injected: 10 s bounds a rollback
// to a few emulation windows without checkpointing every barrier.
const DefaultCheckpointEvery = 10.0

// DefaultMigrationCost is the modeled stall per migrated virtual node:
// shipping a router's state (routing table, queues) across 100 Mb/s
// Ethernet. Shared with the dynamic-remap prototype in internal/core.
const DefaultMigrationCost = 50e-3

// NormalizedMigrationCost converts a per-node migration stall (seconds) into
// the dimensionless units the game-theoretic repartitioner trades against
// its normalized load and traffic objectives: the fraction of one remapping
// interval a single migration stalls. A non-positive stall falls back to
// DefaultMigrationCost; a non-positive interval disables the penalty.
func NormalizedMigrationCost(stall, interval float64) float64 {
	if stall <= 0 {
		stall = DefaultMigrationCost
	}
	if interval <= 0 {
		return 0
	}
	return stall / interval
}

// EngineFailure describes a detected engine crash, handed to Config.OnCrash
// so the caller can compute the recovery assignment.
type EngineFailure struct {
	// Engine is the dead simulation-engine node.
	Engine int
	// Time is the virtual time of the fail-stop.
	Time float64
	// DetectedAt is the window barrier at which the death was observed (a
	// conservative kernel only learns of a silent peer at the barrier).
	DetectedAt float64
	// CheckpointTime is the rollback target: the last barrier checkpoint.
	CheckpointTime float64
	// Assignment is the node→engine assignment in effect at the crash.
	Assignment []int
	// Alive flags the engines still usable after this failure.
	Alive []bool
	// Loads is the per-engine kernel-event count at the checkpoint — the
	// load picture a remapping policy should balance against.
	Loads []float64
}

// Recovery summarizes fault handling over a run with crash faults.
type Recovery struct {
	// Failures is the number of engine crashes recovered from.
	Failures int
	// DeadEngines lists the crashed engines in detection order.
	DeadEngines []int
	// Alive flags the engines that survived the whole run.
	Alive []bool
	// Checkpoints is the number of barrier checkpoints taken.
	Checkpoints int
	// Downtime is the modeled recovery stall in seconds: the re-emulated
	// span between checkpoint and detection per failure, plus the migration
	// cost of every node that changed engines. Charged to AppTime.
	Downtime float64
	// ReplayedEvents counts kernel events that had to be re-executed
	// because a rollback discarded them.
	ReplayedEvents int64
	// Migrations counts nodes that changed engines across all recoveries.
	Migrations int
	// PreFailureImbalance is the load imbalance at the first crash, over
	// the engines alive before it.
	PreFailureImbalance float64
	// PostRecoveryImbalance is the imbalance of load accumulated after the
	// last recovery, over the surviving engines — the metric a remapping
	// policy competes on.
	PostRecoveryImbalance float64
}

// checkpointState pairs a kernel checkpoint with a deep copy of the
// emulator's own mutable state at the same barrier — link transmitters, flow
// delivery, the time-model accumulators, and profiling.
type checkpointState struct {
	des             *des.Checkpoint
	busyUntil       [][2]float64
	linkBytes       [][2]int64
	drops           [][2]int64
	delivered       []int64
	fcts            []float64
	engineBusy      []float64
	bucketCost      [][]float64
	bucketSync      []float64
	bucketBusyWidth []float64
	series          *metrics.Series
	collector       *netflow.Collector
	tel             *telemetry.Checkpoint
}

// snapshot captures the emulation state alongside a kernel checkpoint.
func (e *emulation) snapshot(cp *des.Checkpoint) *checkpointState {
	s := &checkpointState{
		des:             cp,
		busyUntil:       append([][2]float64(nil), e.busyUntil...),
		linkBytes:       append([][2]int64(nil), e.linkBytes...),
		drops:           append([][2]int64(nil), e.drops...),
		delivered:       append([]int64(nil), e.delivered...),
		fcts:            append([]float64(nil), e.fcts...),
		engineBusy:      append([]float64(nil), e.engineBusy...),
		bucketSync:      append([]float64(nil), e.bucketSync...),
		bucketBusyWidth: append([]float64(nil), e.bucketBusyWidth...),
		series:          e.series.Clone(),
		collector:       e.collector.Clone(),
		tel:             e.tel.Checkpoint(),
	}
	s.bucketCost = make([][]float64, len(e.bucketCost))
	for b, row := range e.bucketCost {
		s.bucketCost[b] = append([]float64(nil), row...)
	}
	return s
}

// restore rolls the emulation state back to a snapshot. The snapshot itself
// stays pristine: a later crash may roll back to the same checkpoint again.
func (e *emulation) restore(s *checkpointState) {
	e.busyUntil = append([][2]float64(nil), s.busyUntil...)
	e.linkBytes = append([][2]int64(nil), s.linkBytes...)
	e.drops = append([][2]int64(nil), s.drops...)
	e.delivered = append([]int64(nil), s.delivered...)
	e.fcts = append([]float64(nil), s.fcts...)
	e.engineBusy = append([]float64(nil), s.engineBusy...)
	e.bucketSync = append([]float64(nil), s.bucketSync...)
	e.bucketBusyWidth = append([]float64(nil), s.bucketBusyWidth...)
	e.bucketCost = make([][]float64, len(s.bucketCost))
	for b, row := range s.bucketCost {
		e.bucketCost[b] = append([]float64(nil), row...)
	}
	e.series = s.series.Clone()
	e.collector = s.collector.Clone()
	e.tel.Restore(s.tel)
}

// recordEvent forwards a recovery lifecycle event to the run's recorder, if
// any. All event fields are virtual-time quantities, so faulted traces stay
// deterministic.
func (e *emulation) recordEvent(ev obs.Event) {
	if e.rec != nil {
		e.rec.RecordEvent(ev)
	}
}

// ownerOf returns the engine owning a pending event under the current
// (post-recovery) assignment — how a restore moves a dead engine's events to
// the survivors that inherited its nodes.
func (e *emulation) ownerOf(ev des.Event) (int, bool) {
	switch d := ev.Data.(type) {
	case flowStart:
		return e.assignment[d.flow.src], true
	case tcpRound:
		return e.assignment[d.flow.src], true
	case *chunkArrival:
		return e.assignment[d.flow.path[d.hop]], true
	default:
		return ev.LP, true
	}
}

// runResilient executes the kernel, recovering from scheduled engine
// crashes and applying scheduled elastic resizes: crash detection at the
// window barrier triggers rollback to the last barrier checkpoint, OnCrash
// remapping of the dead engine's nodes and pending events onto survivors, and
// deterministic replay of the lost windows; a resize pauses at the barrier,
// repartitions onto the new engine set from the live (un-rolled-back) state,
// and resumes. Without crashes or resizes it is a plain kernel run.
func (e *emulation) runResilient(k *des.Kernel) (*des.Stats, *Recovery, error) {
	sched := e.cfg.Faults
	hasCrashes := sched.HasCrashes()
	elastic := e.cfg.Elastic
	if !hasCrashes && len(elastic) == 0 {
		stats, err := k.Run()
		return stats, nil, err
	}

	every := e.cfg.CheckpointEvery
	var handled []bool
	if hasCrashes {
		handled = make([]bool, len(sched.Crashes))
	}
	resized := make([]bool, len(elastic))
	alive := make([]bool, e.cfg.NumEngines)
	for i := range alive {
		alive[i] = true
	}
	var rec *Recovery
	if hasCrashes {
		rec = &Recovery{}
	}
	if len(elastic) > 0 {
		e.membership = &Membership{}
	}

	// The initial checkpoint covers crashes before the first scheduled one.
	last := e.snapshot(k.Checkpoint(0))
	if rec != nil {
		rec.Checkpoints++
	}
	e.recordEvent(obs.Event{Kind: obs.EventCheckpoint, Time: 0, LP: -1})
	nextCkpt := every
	e.barrier = func(ws, we float64) error {
		// Membership changes come first: a window that contains a failure
		// must not contribute a checkpoint, because the dead engine's state
		// past the failure instant is garbage. A pending crash and a pending
		// resize are ordered by scheduled time, crash winning ties (the
		// failure instant precedes the barrier that would apply the resize).
		crashIdx, crash, crashOK := -1, faults.Crash{}, false
		if hasCrashes {
			crashIdx, crash, crashOK = sched.NextCrash(we, handled)
		}
		resizeIdx := -1
		for i, r := range elastic {
			if !resized[i] && we >= r.At {
				resizeIdx = i
				break
			}
		}
		if crashOK && (resizeIdx < 0 || crash.At <= elastic[resizeIdx].At) {
			handled[crashIdx] = true
			return &des.LPFailure{LP: crash.Engine, Time: crash.At}
		}
		if resizeIdx >= 0 {
			resized[resizeIdx] = true
			return &resizeSignal{idx: resizeIdx, at: we, cp: k.Checkpoint(we)}
		}
		if we >= nextCkpt {
			last = e.snapshot(k.Checkpoint(we))
			if rec != nil {
				rec.Checkpoints++
			}
			e.recordEvent(obs.Event{Kind: obs.EventCheckpoint, Time: we, LP: -1})
			for nextCkpt <= we {
				nextCkpt += every
			}
		}
		return nil
	}

	// postBase is the per-engine charge baseline at the latest recovery, so
	// PostRecoveryImbalance measures only load emulated after it.
	var postBase []int64
	for {
		stats, err := k.Run()
		if err == nil {
			if rec == nil {
				return stats, nil, nil
			}
			if rec.Failures > 0 {
				post := make([]float64, e.cfg.NumEngines)
				for lp := range post {
					var base int64
					if postBase != nil {
						base = postBase[lp]
					}
					post[lp] = float64(stats.Charges[lp] - base)
				}
				rec.PostRecoveryImbalance = metrics.ImbalanceSubset(post, alive)
			}
			rec.Alive = alive
			return stats, rec, nil
		}
		var rs *resizeSignal
		if errors.As(err, &rs) {
			snap, rerr := e.applyResize(k, rs, alive)
			if rerr != nil {
				return nil, nil, rerr
			}
			// The resize snapshot becomes the rollback fence: a later crash
			// must not roll back behind a membership change.
			last = snap
			continue
		}
		var lpf *des.LPFailure
		if !errors.As(err, &lpf) {
			return nil, nil, err
		}
		if !alive[lpf.LP] {
			return nil, nil, fmt.Errorf("emu: crash of already-dead engine %d", lpf.LP)
		}
		if rec.Failures == 0 {
			loads := make([]float64, len(stats.Charges))
			for i, c := range stats.Charges {
				loads[i] = float64(c)
			}
			rec.PreFailureImbalance = metrics.ImbalanceSubset(loads, alive)
		}
		alive[lpf.LP] = false
		rec.Failures++
		rec.DeadEngines = append(rec.DeadEngines, lpf.LP)
		// Event.Value carries the fail-stop instant; Time is the barrier at
		// which a conservative kernel could first observe the silent peer.
		e.recordEvent(obs.Event{Kind: obs.EventCrash, Time: stats.VirtualEnd, LP: lpf.LP, Value: lpf.Time})

		cpStats := last.des.Stats()
		cpLoads := make([]float64, len(cpStats.Charges))
		for i, c := range cpStats.Charges {
			cpLoads[i] = float64(c)
		}
		newAssign, err := e.cfg.OnCrash(EngineFailure{
			Engine:         lpf.LP,
			Time:           lpf.Time,
			DetectedAt:     stats.VirtualEnd,
			CheckpointTime: last.des.Time,
			Assignment:     append([]int(nil), e.assignment...),
			Alive:          append([]bool(nil), alive...),
			Loads:          cpLoads,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("emu: recovery after engine %d crash: %w", lpf.LP, err)
		}
		if len(newAssign) != e.nw.NumNodes() {
			return nil, nil, fmt.Errorf("emu: recovery assignment covers %d nodes, network has %d",
				len(newAssign), e.nw.NumNodes())
		}
		migrations := 0
		migTo := make([]int64, e.cfg.NumEngines)
		for v, eng := range newAssign {
			if eng < 0 || eng >= e.cfg.NumEngines || !alive[eng] {
				return nil, nil, fmt.Errorf("emu: recovery assigned node %d to dead or invalid engine %d", v, eng)
			}
			if eng != e.assignment[v] {
				migrations++
				migTo[eng]++
			}
		}
		var replayed int64
		for i, n := range stats.Events {
			replayed += n - cpStats.Events[i]
		}
		rec.Migrations += migrations
		rec.ReplayedEvents += replayed
		rec.Downtime += (stats.VirtualEnd - last.des.Time) + float64(migrations)*e.cfg.MigrationCost
		// Rollback.Value is the window count the recovery discards and must
		// re-execute; one migration event per destination engine, in engine
		// order, keeps the trace deterministic.
		e.recordEvent(obs.Event{Kind: obs.EventRollback, Time: last.des.Time, LP: lpf.LP,
			Value: float64(stats.Windows - cpStats.Windows)})
		for eng, n := range migTo {
			if n > 0 {
				e.recordEvent(obs.Event{Kind: obs.EventMigration, Time: last.des.Time, LP: eng, Value: float64(n)})
			}
		}

		// Roll back, remap, resume. The new assignment cuts a different set
		// of links, so the synchronization window is recomputed.
		e.restore(last)
		e.assignment = append([]int(nil), newAssign...)
		if err := k.Restore(last.des, Lookahead(e.nw, e.assignment, e.cfg.MinLookahead), e.ownerOf); err != nil {
			return nil, nil, err
		}
		postBase = append([]int64(nil), cpStats.Charges...)
	}
}
