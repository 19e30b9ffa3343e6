package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/telemetry"
	"repro/internal/topogen"
)

// opKind is the user entry point one operation calls.
type opKind int

const (
	opRun     opKind = iota // core.Scenario.Run, one call per approach
	opDist                  // core.Scenario.RunDistributed over TCP workers
	opDynamic               // core.Scenario.RunDynamic, one call per policy
)

// unit is one scenario, built once through experiments.ScenarioFor, and the
// operations run on it one after another.
type unit struct {
	Topo, App  string
	Duration   float64 // virtual seconds
	Seed       int64
	Kind       opKind
	Round      int                // the round of the pass the unit belongs to
	Approaches []mapping.Approach // opRun, opDist
	Policies   []core.RemapPolicy // opDynamic
}

func (u unit) label() string {
	return fmt.Sprintf("%s/%s/%gs/seed%d", u.Topo, u.App, u.Duration, u.Seed)
}

func (u unit) ops() int {
	if u.Kind == opDynamic {
		return len(u.Policies)
	}
	return len(u.Approaches)
}

// workload is one set of inputs the benchmark runs. A pass runs every
// operation of every unit, in order, in this process; its units form
// rounds of equal shape on different seeds, and a round is the fixed work
// wall_s times.
type workload struct {
	Name  string
	Units func(seed int64) []unit
}

const (
	// Round shapes: the cheaper workloads run several short rounds per
	// pass, each on its own scenario seeds derived from --seed. The outputs
	// then average over more inputs, and wall_s, the median round, shrugs
	// off one round slowed by the host.
	campusRounds, campusPanel   = 3, 3
	distRounds, distPanel       = 4, 1
	dynamicRounds, dynamicPanel = 3, 2
	// dynamicIntervals is the number of remap intervals per RunDynamic call.
	dynamicIntervals = 5
	// distWorkers is the number of in-process TCP workers.
	distWorkers = 2
	// partSeed is the partitioner seed ScenarioFor derives from the default
	// seed 42. The benchmark holds it fixed: --seed varies the inputs
	// (topology, background and application traffic), not the program's
	// configuration. The partitioner's seed alone moves a Campus TOP run's
	// imbalance between 0.08 and 0.19, which would drown the inputs' effect.
	partSeed = 42 + 3
)

// rounds builds n rounds of per scenarios each, on scenario seeds derived
// from the workload seed (the first is the seed itself).
func rounds(seed int64, n, per int, mk func(seed int64) unit) []unit {
	var us []unit
	for i := 0; i < n*per; i++ {
		u := mk(seed + int64(i)*7919)
		u.Round = i / per
		us = append(us, u)
	}
	return us
}

var workloads = []workload{
	{
		// Mapping-heavy: the paper's Table-1 grid. Partitioning (including
		// PROFILE's pre-run) is ~90% of it and main emulation under a tenth,
		// so a partitioner change shows here and a kernel change barely does.
		Name: "table1-scalapack",
		Units: func(seed int64) []unit {
			var us []unit
			for _, s := range topogen.Table1() {
				us = append(us, unit{Topo: s.Name, App: "ScaLapack", Duration: 30, Seed: seed,
					Kind: opRun, Approaches: mapping.Approaches()})
			}
			return us
		},
	},
	{
		// Kernel-heavy: long Campus TOP runs at ~1.6 events per window, where
		// emu.Run is ~90% and mapping under a tenth; a kernel, dispatch or
		// telemetry hot-path change shows here, a partitioner change should not.
		Name: "emulate-campus-300",
		Units: func(seed int64) []unit {
			return rounds(seed, campusRounds, campusPanel, func(s int64) unit {
				return unit{Topo: "Campus", App: "ScaLapack", Duration: 300, Seed: s,
					Kind: opRun, Approaches: []mapping.Approach{mapping.Top}}
			})
		},
	},
	{
		// Wire-heavy: the same kernel driven window by window through the
		// dist protocol over 127.0.0.1 TCP to two dist.Serve workers; the only
		// workload that runs internal/dist. TeraGrid, because Campus over TCP
		// spreads widely between runs. One rig serves one run, so a
		// distributed unit has exactly one approach.
		Name: "dist-teragrid-tcp",
		Units: func(seed int64) []unit {
			return rounds(seed, distRounds, distPanel, func(s int64) unit {
				return unit{Topo: "TeraGrid", App: "ScaLapack", Duration: 30, Seed: s,
					Kind: opDist, Approaches: []mapping.Approach{mapping.Top}}
			})
		},
	},
	{
		// Remap-heavy: RunDynamic under each policy refines an existing
		// assignment again and again (Improve, GameImprove) or re-runs
		// ProfileMap per interval, fed by telemetry; the only workload that
		// reaches the refine, rebalance and game code.
		Name: "dynamic-campus-gridnpb",
		Units: func(seed int64) []unit {
			return rounds(seed, dynamicRounds, dynamicPanel, func(s int64) unit {
				return unit{Topo: "Campus", App: "GridNPB", Duration: 30, Seed: s,
					Kind: opDynamic, Policies: core.RemapPolicies()}
			})
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opResult is one operation's outputs and the checks it failed.
type opResult struct {
	Label string
	Err   error
	Fails []string

	Imbalance    float64
	AppTime      float64
	Cross, Total int64
	Migrations   int
	Events       int64
	Windows      int64
	Remote       int64
	Lookahead    float64
	CutLinks     int
	// Digest hashes the run's canonical output: dist.ResultJSON for Run and
	// RunDistributed, the JSON of the DynamicResult for RunDynamic.
	Digest     string
	Assignment []int
	// Dur is the operation's wall time in its pass.
	Dur time.Duration

	Segments   int
	GameRounds int
	GameMoves  int
	// Dist holds the coordinator/worker wrapper counts of a traced
	// distributed run; nil otherwise.
	Dist *distStats
	// InProc is true for a Run whose main emulation ran in this process
	// (as opposed to on distributed workers or in RunDynamic segments).
	InProc bool
}

func (r *opResult) fail(format string, args ...any) {
	r.Fails = append(r.Fails, fmt.Sprintf(format, args...))
}

func (r *opResult) failed() bool { return r.Err != nil || len(r.Fails) > 0 }

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// live is one unit's set-up state.
type live struct {
	u     unit
	sc    *core.Scenario
	flows int
	rig   *distRig // opDist only
}

// setupUnit builds the unit's scenario the way the CLIs do — ScenarioFor,
// then the memoized workload and route oracle — and, for a distributed
// unit, the listener and worker connections.
func setupUnit(ctx context.Context, tr *Tracer, u unit, wrap bool) (*live, error) {
	id := tr.Begin("topogen.ByName") // ScenarioFor is topogen.ByName plus plain struct set-up
	sc, err := experiments.ScenarioFor(experiments.Config{Duration: u.Duration, Seed: u.Seed}, u.Topo, u.App)
	tr.End(id)
	if err != nil {
		return nil, err
	}
	sc.PartSeed = partSeed
	id = tr.Begin("traffic.Workload")
	w, err := sc.Workload()
	tr.End(id)
	if err != nil {
		return nil, err
	}
	id = tr.Begin("netgraph.Routes")
	_, err = sc.Routes()
	tr.End(id)
	if err != nil {
		return nil, err
	}
	l := &live{u: u, sc: sc, flows: len(w.Flows)}
	if u.Kind == opDist {
		id = tr.Begin("dist.connect")
		l.rig, err = openRig(ctx, distWorkers, wrap)
		tr.End(id)
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

// runOp runs operation i of a set-up unit through the public entry point.
// With a tracer, Run operations are decomposed into their layer calls.
func runOp(ctx context.Context, tr *Tracer, l *live, i int) *opResult {
	u := l.u
	switch u.Kind {
	case opRun:
		a := u.Approaches[i]
		r := &opResult{Label: fmt.Sprintf("%s %s", u.label(), a), InProc: true}
		id := tr.Begin("cell " + r.Label)
		var assign []int
		var res *emu.Result
		if tr == nil {
			var o *core.Outcome
			if o, r.Err = l.sc.Run(ctx, a); r.Err == nil {
				assign, res = o.Assignment, o.Result
			}
		} else {
			assign, res, r.Err = decomposedRun(ctx, tr, l.sc, a)
		}
		tr.End(id)
		if r.Err == nil {
			fillResult(r, l, assign, res)
		}
		return r
	case opDist:
		r := &opResult{Label: fmt.Sprintf("%s %s dist", u.label(), u.Approaches[i])}
		id := tr.Begin("core.RunDistributed")
		entry := time.Now()
		o, err := l.sc.RunDistributed(ctx, u.Approaches[i], l.rig.conns, dist.Options{})
		done := time.Now()
		r.Err = err
		if werr := l.rig.wait(ctx); werr != nil && r.Err == nil {
			r.fail("worker: %v", werr)
		}
		if tr != nil {
			st := l.rig.stats()
			r.Dist = &st
			tr.Add("dist.prewire", entry, st.FirstOp)
			tr.Add("dist.handshake", st.FirstOp, st.FirstWindow)
			tr.Add("dist.windows", st.FirstWindow, done)
			if st.CoordSent != st.WorkerRecv || st.CoordRecv != st.WorkerSent {
				r.fail("wire counts disagree: coordinator sent %d/received %d frames, workers received %d/sent %d",
					st.CoordSent, st.CoordRecv, st.WorkerRecv, st.WorkerSent)
			}
		}
		tr.End(id)
		if r.Err == nil {
			fillResult(r, l, o.Assignment, o.Result)
		}
		return r
	default: // opDynamic
		p := u.Policies[i]
		r := &opResult{Label: fmt.Sprintf("%s %s", u.label(), p)}
		l.sc.Remap = p
		id := tr.Begin("core.RunDynamic/" + string(p))
		dr, err := l.sc.RunDynamic(ctx, u.Duration/dynamicIntervals, 0)
		tr.End(id)
		r.Err = err
		if err == nil {
			fillDynamic(r, l, dr)
		}
		return r
	}
}

// decomposedRun performs core.Scenario.Run as its public layer calls, in the
// order core makes them, each under its own span: the mapping call (for
// PROFILE: TopMap, the profiling emu.Run, Summarize, ProfileMap), then the
// main emu.Run with the Config and options Scenario.emulate builds.
func decomposedRun(ctx context.Context, tr *Tracer, sc *core.Scenario, a mapping.Approach) ([]int, *emu.Result, error) {
	in, err := sc.MappingInput()
	if err != nil {
		return nil, nil, err
	}
	span := func(name string, f func() error) error {
		id := tr.Begin(name)
		defer tr.End(id)
		return f()
	}
	var part []int
	switch a {
	case mapping.Top:
		err = span("mapping.TopMap", func() (e error) { part, e = mapping.TopMap(in); return })
	case mapping.Place:
		if sc.Background != nil {
			_ = span("traffic.Predict", func() error { in.Background = sc.Background.Predict(sc.Network); return nil })
		}
		in.AppHosts = sc.AppPlacement()
		err = span("mapping.PlaceMap", func() (e error) { part, e = mapping.PlaceMap(in); return })
	case mapping.Profile:
		var top []int
		if err = span("mapping.TopMap", func() (e error) { top, e = mapping.TopMap(in); return }); err != nil {
			return nil, nil, err
		}
		var prof *emu.Result
		if err = span("emu.Run/profile", func() (e error) { prof, e = emulate(ctx, sc, top, true); return }); err != nil {
			return nil, nil, err
		}
		_ = span("netflow.Summarize", func() error { in.Summary = prof.NetFlow.Summarize(); return nil })
		err = span("mapping.ProfileMap", func() (e error) { part, e = mapping.ProfileMap(in); return })
	default:
		err = fmt.Errorf("unknown approach %q", a)
	}
	if err != nil {
		return nil, nil, err
	}
	var res *emu.Result
	err = span("emu.Run", func() (e error) { res, e = emulate(ctx, sc, part, false); return })
	return part, res, err
}

// emulate mirrors core.Scenario.emulate for the scenarios ScenarioFor
// builds (stats and a fresh telemetry collector per run; no recorder or
// timeline).
func emulate(ctx context.Context, sc *core.Scenario, assignment []int, profile bool) (*emu.Result, error) {
	w, err := sc.Workload()
	if err != nil {
		return nil, err
	}
	routes, err := sc.Routes()
	if err != nil {
		return nil, err
	}
	opts := []emu.Option{emu.WithContext(ctx)}
	if sc.CollectStats {
		opts = append(opts, emu.WithStats())
	}
	if sc.CollectTelemetry {
		opts = append(opts, emu.WithTelemetry(telemetry.New()))
	}
	return emu.Run(emu.Config{
		Network:      sc.Network,
		Routes:       routes,
		Assignment:   assignment,
		NumEngines:   sc.Engines,
		Workload:     w,
		Cost:         sc.Cost,
		Profile:      profile,
		EndTime:      sc.EndTime,
		Transport:    sc.Transport,
		EngineSpeeds: sc.EngineSpeeds,
		Sequential:   sc.Sequential,
		Faults:       sc.Faults,
	}, opts...)
}

// fillResult records a Run or RunDistributed outcome and checks it.
func fillResult(r *opResult, l *live, assign []int, res *emu.Result) {
	r.Assignment = assign
	r.Imbalance, r.AppTime = res.Imbalance, res.AppTime
	r.Remote, r.Lookahead = res.RemoteEvents, res.Lookahead
	if res.Kernel != nil {
		r.Windows = res.Kernel.Windows
		for _, e := range res.Kernel.Events {
			r.Events += e
		}
	}
	if res.Telemetry == nil {
		r.fail("no telemetry snapshot")
	} else {
		r.Cross, r.Total = res.Telemetry.CrossEngineBytes, res.Telemetry.TotalBytes
	}
	blob, err := dist.ResultJSON(res)
	if err != nil {
		r.fail("canonical result: %v", err)
	}
	r.Digest = digest(blob)
	checkAssignment(r, l, assign)
	r.CutLinks = cutLinks(l, assign)
	for f, fct := range res.FlowFCTs {
		if fct < 0 {
			r.fail("flow %d did not complete", f)
			break
		}
	}
}

// fillDynamic records a RunDynamic outcome and checks it.
func fillDynamic(r *opResult, l *live, dr *core.DynamicResult) {
	r.Imbalance, r.AppTime, r.Migrations = dr.Imbalance, dr.AppTime, dr.Migrations
	r.Segments = len(dr.Segments)
	flows := 0
	for si, s := range dr.Segments {
		flows += s.Flows
		checkAssignment(r, l, s.Assignment)
		r.CutLinks += cutLinks(l, s.Assignment)
		// The telemetry timeline carries the per-window byte totals the
		// result omits; its cross-engine bytes must add up to the segment's.
		var cross int64
		for _, p := range s.Timeline {
			cross += p.CrossEngineBytes
			r.Total += p.TotalBytes
		}
		if cross != s.CrossEngineBytes {
			r.fail("segment %d: timeline cross bytes %d != segment %d", si, cross, s.CrossEngineBytes)
		}
		if s.Remap == nil {
			continue
		}
		if s.Remap.Policy == core.RemapGame {
			r.GameRounds += s.Remap.Rounds
			r.GameMoves += s.Remap.MovesEvaluated
			for k := 1; k < len(s.Remap.Payoffs); k++ {
				if s.Remap.Payoffs[k] > s.Remap.Payoffs[k-1] {
					r.fail("segment %d: game payoff rose at round %d (%g -> %g)",
						si, k, s.Remap.Payoffs[k-1], s.Remap.Payoffs[k])
					break
				}
			}
		}
	}
	r.Cross = dr.CrossEngineBytes
	if flows != l.flows {
		r.fail("segments emulated %d flows, workload has %d", flows, l.flows)
	}
	blob, err := json.Marshal(dr)
	if err != nil {
		r.fail("marshal dynamic result: %v", err)
	}
	r.Digest = digest(blob)
}

// checkAssignment requires one engine per node and no empty engine.
func checkAssignment(r *opResult, l *live, assign []int) {
	nw, k := l.sc.Network, l.sc.Engines
	if len(assign) != nw.NumNodes() {
		r.fail("assignment has %d entries for %d nodes", len(assign), nw.NumNodes())
		return
	}
	used := make([]bool, k)
	for v, e := range assign {
		if e < 0 || e >= k {
			r.fail("node %d on engine %d of %d", v, e, k)
			return
		}
		used[e] = true
	}
	for e, ok := range used {
		if !ok {
			r.fail("engine %d is empty", e)
			return
		}
	}
}

// cutLinks counts links whose two ends sit on different engines.
func cutLinks(l *live, assign []int) int {
	if len(assign) != l.sc.Network.NumNodes() {
		return 0
	}
	n := 0
	for _, lk := range l.sc.Network.Links {
		if assign[lk.A] != assign[lk.B] {
			n++
		}
	}
	return n
}
