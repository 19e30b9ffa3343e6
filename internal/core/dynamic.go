package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/emu"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/netflow"
	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// Dynamic remapping — the paper's §6 conclusion: "Static partitions are
// fundamentally limited for large emulation if traffic varies widely...
// Dynamic remapping the virtual network during the emulation is the only
// solution. Such dynamic remapping is a major challenge for distributed
// emulators like MaSSF."
//
// This prototype divides the emulation into fixed intervals. The first
// interval runs under the TOP partition; every subsequent interval is
// repartitioned from the previous interval's measured traffic and charged a
// migration cost per virtual node that changes engines (state transfer over
// the cluster network). Flows are emulated within the interval they start in
// — transfers spanning a boundary restart their queueing state, an
// approximation this prototype accepts and the real MaSSF would have to
// engineer away.
//
// The remapping signal is, by default, the live telemetry plane: the
// collector threaded through the emulator converts its measured per-node /
// per-link traffic into the PROFILE form (telemetry.Collector.ToProfile), so
// the loop is closed without the NetFlow dump side-channel. Scenario.
// NetFlowRemap switches back to the §3.3 offline pipeline; the two feeds
// produce identical interval partitions (regression-tested), because both
// observe the identical packet stream at the identical hot-path site.

// RemapPolicy selects how RunDynamic recomputes the partition between
// intervals.
type RemapPolicy string

const (
	// RemapProfile repartitions each interval from scratch with the full
	// PROFILE pipeline — the best partition money can buy, paid for in
	// migrations.
	RemapProfile RemapPolicy = "profile"
	// RemapIncremental refines the previous assignment with the multilevel
	// partitioner's boundary refinement (mapping.ProfileImprove).
	RemapIncremental RemapPolicy = "incremental"
	// RemapGame plays the game-theoretic iterative repartitioner: every
	// virtual node selfishly trades load, cross-engine traffic and the
	// modeled migration cost until a Nash-style fixed point
	// (mapping.GameRemap).
	RemapGame RemapPolicy = "game"
	// RemapDiffusion is the traffic-blind load-diffusion baseline
	// (mapping.DiffusionRemap).
	RemapDiffusion RemapPolicy = "diffusion"
)

// RemapPolicies lists the valid policies in presentation order.
func RemapPolicies() []RemapPolicy {
	return []RemapPolicy{RemapProfile, RemapIncremental, RemapGame, RemapDiffusion}
}

// ParseRemapPolicy validates a policy name from a flag or config file.
func ParseRemapPolicy(s string) (RemapPolicy, error) {
	switch p := RemapPolicy(s); p {
	case RemapProfile, RemapIncremental, RemapGame, RemapDiffusion:
		return p, nil
	}
	return "", fmt.Errorf("core: unknown remap policy %q (want profile, incremental, game or diffusion)", s)
}

// remapPolicy resolves the scenario's effective policy, folding in the older
// IncrementalRemap boolean when Remap is unset.
func (sc *Scenario) remapPolicy() (RemapPolicy, error) {
	if sc.Remap == "" {
		if sc.IncrementalRemap {
			return RemapIncremental, nil
		}
		return RemapProfile, nil
	}
	return ParseRemapPolicy(string(sc.Remap))
}

// RemapStats reports the remapping step that produced a segment's
// assignment.
type RemapStats struct {
	// Policy is the remap policy that ran.
	Policy RemapPolicy
	// Rounds, MovesEvaluated, Converged and Payoffs describe the game
	// policy's convergence (zero/nil for the other policies): best-response
	// rounds played, candidate moves costed, whether a fixed point was
	// certified before the round cap, and the non-increasing potential
	// trajectory (one entry before the first round, one after each round).
	Rounds         int
	MovesEvaluated int
	Converged      bool
	Payoffs        []float64
	// MovesTaken counts the remap's accepted moves. For the game policy a
	// node may move more than once on its way to the fixed point, so this
	// can exceed the segment's Migrations field, which counts distinct
	// nodes that changed engines.
	MovesTaken int
}

// DynamicSegment reports one remapping interval.
type DynamicSegment struct {
	// Start is the interval's beginning in virtual seconds.
	Start float64
	// Imbalance is the interval's realized load imbalance.
	Imbalance float64
	// Migrations is the number of nodes that changed engines entering this
	// interval.
	Migrations int
	// Flows is the number of flows injected during this interval.
	Flows int
	// Assignment is the node→engine assignment the interval ran under.
	Assignment []int
	// CrossEngineBytes is the interval's engine-to-engine traffic volume
	// (zero when the run had no telemetry plane, i.e. NetFlowRemap without
	// CollectTelemetry).
	CrossEngineBytes int64
	// Timeline is the interval's per-measurement-window imbalance and
	// cross-engine-traffic history (times relative to the interval start);
	// nil without a telemetry plane.
	Timeline []telemetry.TrafficPoint
	// Remap describes the remapping step that produced this segment's
	// assignment; nil for the first segment (which runs under TOP) and for
	// segments entered without a remap (the previous interval was empty).
	Remap *RemapStats
}

// DynamicResult reports a dynamically remapped emulation.
type DynamicResult struct {
	Segments []DynamicSegment
	// Imbalance is the load imbalance of the total per-engine loads across
	// the whole run.
	Imbalance float64
	// MeanSegmentImbalance averages the per-interval imbalances (the
	// quantity remapping actually optimizes — it tracks load shifts).
	MeanSegmentImbalance float64
	// AppTime and NetTime are summed over intervals, including migration
	// stalls in AppTime.
	AppTime float64
	NetTime float64
	// Migrations is the total node-engine changes.
	Migrations int
	// CrossEngineBytes totals the engine-to-engine traffic over all
	// intervals (zero without a telemetry plane).
	CrossEngineBytes int64
}

// Timeline concatenates the segments' per-window traffic histories into one
// absolute-time curve — the per-window imbalance / cross-engine-traffic
// timeline the experiment reports render.
func (r *DynamicResult) Timeline() []telemetry.TrafficPoint {
	var out []telemetry.TrafficPoint
	for _, s := range r.Segments {
		for _, p := range s.Timeline {
			p.Time += s.Start
			out = append(out, p)
		}
	}
	return out
}

// DefaultMigrationCost is the modeled stall per migrated node: shipping a
// router's state (routing table, queues) across 100 Mb/s Ethernet. Shared
// with crash recovery (emu.DefaultMigrationCost) so both remapping paths
// price migrations identically.
const DefaultMigrationCost = emu.DefaultMigrationCost

// RunDynamic emulates the scenario in intervals of the given width,
// remapping between intervals from each interval's NetFlow profile.
// migrationCost is the AppTime stall charged per migrated node
// (DefaultMigrationCost when <= 0). Cancellation of ctx is observed at
// window barriers within each segment.
func (sc *Scenario) RunDynamic(ctx context.Context, interval, migrationCost float64) (*DynamicResult, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("core: dynamic remapping needs a positive interval")
	}
	if migrationCost <= 0 {
		migrationCost = DefaultMigrationCost
	}
	w, err := sc.Workload()
	if err != nil {
		return nil, err
	}
	duration := w.Duration
	if duration <= 0 {
		return nil, fmt.Errorf("core: dynamic remapping needs a workload with a duration")
	}

	in, err := sc.mappingInput()
	if err != nil {
		return nil, err
	}
	assignment, err := mapping.TopMap(in)
	if err != nil {
		return nil, fmt.Errorf("core: dynamic initial partition: %w", err)
	}
	routes, err := sc.Routes()
	if err != nil {
		return nil, err
	}

	// The remap feed: measured telemetry by default, the NetFlow side-channel
	// under NetFlowRemap. One collector serves all segments (re-sized per
	// segment), so a live mount watches the current interval.
	tel := sc.newTelemetry()
	if tel == nil && !sc.NetFlowRemap {
		tel = telemetry.New()
	}

	policy, err := sc.remapPolicy()
	if err != nil {
		return nil, err
	}

	res := &DynamicResult{}
	engineTotals := make([]float64, sc.Engines)
	incomingMigrations := 0
	var incomingRemap *RemapStats
	var profScratch *netflow.Summary
	// Segments are indexed by integer, never by accumulating start +=
	// interval: the accumulated float error can leave start < duration after
	// the tail segment already ran with end = +Inf, and the resulting
	// spurious extra segment would re-emulate (and re-count) trailing flows.
	for i := 0; ; i++ {
		start := float64(i) * interval
		if start >= duration {
			break
		}
		end := float64(i+1) * interval
		tail := end >= duration
		if tail {
			// Applications may emit trailing flows slightly past the
			// nominal duration; the last interval absorbs them.
			end = math.Inf(1)
		}
		seg := sliceWorkload(w, start, end)
		if tail {
			seg.Duration = duration - start
		}
		opts := sc.runOptions(ctx)
		if tel != nil {
			opts = append(opts, emu.WithTelemetry(tel))
		}
		segResult, err := emu.Run(emu.Config{
			Network:    sc.Network,
			Routes:     routes,
			Assignment: assignment,
			NumEngines: sc.Engines,
			Workload:   seg,
			Cost:       sc.Cost,
			Profile:    sc.NetFlowRemap,
			Transport:  sc.Transport,
		}, opts...)
		if err != nil {
			return nil, fmt.Errorf("core: dynamic segment at %gs: %w", start, err)
		}
		segOut := DynamicSegment{
			Start:      start,
			Imbalance:  segResult.Imbalance,
			Migrations: incomingMigrations,
			Flows:      len(seg.Flows),
			Assignment: append([]int(nil), assignment...),
			Remap:      incomingRemap,
		}
		if segResult.Telemetry != nil {
			segOut.CrossEngineBytes = segResult.Telemetry.CrossEngineBytes
			segOut.Timeline = segResult.Telemetry.Timeline
			res.CrossEngineBytes += segResult.Telemetry.CrossEngineBytes
		}
		res.Segments = append(res.Segments, segOut)
		res.AppTime += segResult.AppTime + float64(incomingMigrations)*migrationCost
		res.NetTime += segResult.NetTime
		res.Migrations += incomingMigrations
		for e, l := range segResult.EngineLoads {
			engineTotals[e] += l
		}

		incomingMigrations = 0
		incomingRemap = nil
		if tail {
			// The tail segment absorbed every remaining flow; stop here —
			// running another iteration would be pure float-drift fallout.
			break
		}
		// Remap for the next interval from this interval's measured traffic,
		// under the selected policy. An empty interval measured nothing, so
		// its remap is skipped and the assignment carries over.
		if len(seg.Flows) > 0 {
			in, err := sc.mappingInput()
			if err != nil {
				return nil, err
			}
			in.Summary = sc.segProfile(tel, segResult, &profScratch)
			next, moved, stats, err := sc.remapStep(policy, in, assignment, interval, migrationCost)
			if err != nil {
				return nil, fmt.Errorf("core: dynamic %s remap at %gs: %w", policy, end, err)
			}
			incomingMigrations = moved
			incomingRemap = stats
			assignment = next
		}
	}

	res.Imbalance = metrics.Imbalance(engineTotals)
	var sum float64
	active := 0
	for _, s := range res.Segments {
		if s.Flows > 0 {
			sum += s.Imbalance
			active++
		}
	}
	if active > 0 {
		res.MeanSegmentImbalance = sum / float64(active)
	}
	return res, nil
}

// remapStep recomputes the assignment from the interval's measured profile
// under the selected policy, returning the next assignment (a fresh slice),
// the number of nodes that changed engines, and the step's stats.
func (sc *Scenario) remapStep(policy RemapPolicy, in mapping.Input, assignment []int, interval, migrationCost float64) ([]int, int, *RemapStats, error) {
	st := &RemapStats{Policy: policy}
	switch policy {
	case RemapIncremental:
		next, moved, err := mapping.ProfileImprove(in, assignment)
		if err != nil {
			return nil, 0, nil, err
		}
		st.MovesTaken = moved
		return next, moved, st, nil
	case RemapGame:
		// The migration penalty enters the payoff in the game's normalized
		// units: the fraction of the interval one migration stalls. The
		// tie-break seed derives from PartSeed inside GameRemap.
		gopts := partition.GameOptions{
			MigrationCost: emu.NormalizedMigrationCost(migrationCost, interval),
		}
		next, moved, gs, err := mapping.GameRemap(in, assignment, gopts)
		if err != nil {
			return nil, 0, nil, err
		}
		st.Rounds = gs.Rounds
		st.MovesEvaluated = gs.MovesEvaluated
		st.MovesTaken = gs.MovesTaken
		st.Converged = gs.Converged
		st.Payoffs = gs.Payoffs
		return next, moved, st, nil
	case RemapDiffusion:
		next, moved, err := mapping.DiffusionRemap(in, assignment)
		if err != nil {
			return nil, 0, nil, err
		}
		st.MovesTaken = moved
		return next, moved, st, nil
	default: // RemapProfile
		next, err := mapping.ProfileMap(in)
		if err != nil {
			return nil, 0, nil, err
		}
		moved := 0
		for v := range next {
			if next[v] != assignment[v] {
				moved++
			}
		}
		st.MovesTaken = moved
		return next, moved, st, nil
	}
}

// segProfile picks the interval's remap feed: the NetFlow dump under
// NetFlowRemap, the telemetry plane's measured traffic otherwise. The two are
// numerically identical (see emu's TestTelemetryMatchesNetFlowProfile), so
// flipping the knob never changes the produced partitions. The telemetry
// path exports into *scratch, reusing the previous interval's summary
// storage instead of reallocating it every boundary.
func (sc *Scenario) segProfile(tel *telemetry.Collector, segResult *emu.Result, scratch **netflow.Summary) *netflow.Summary {
	if sc.NetFlowRemap {
		return segResult.NetFlow.Summarize()
	}
	*scratch = tel.ToProfileInto(*scratch)
	return *scratch
}

// sliceWorkload keeps the flows starting in [start, end), rebased so the
// segment emulation begins at virtual time 0.
func sliceWorkload(w traffic.Workload, start, end float64) traffic.Workload {
	out := traffic.Workload{Duration: end - start, AppHosts: w.AppHosts}
	for _, f := range w.Flows {
		if f.Start >= start && f.Start < end {
			f.Start -= start
			f.ID = len(out.Flows)
			out.Flows = append(out.Flows, f)
		}
	}
	return out
}
