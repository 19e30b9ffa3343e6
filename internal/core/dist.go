package core

import (
	"context"
	"fmt"

	"repro/internal/dist"
	"repro/internal/emu"
	"repro/internal/mapping"
)

// Distributed execution — the deployment shape the paper actually ran on: a
// coordinator process drives worker processes over TCP, each worker hosting a
// share of the simulation engines. The scenario-level work (workload and
// topology generation, partitioning — including the PROFILE pre-run) stays on
// the coordinator; only the engine execution distributes. Results are
// byte-identical to Scenario.Run of the same scenario.

// RunDistributed executes one approach with the engines spread across the
// given worker connections. Worker loss degrades into the same
// RemapSurvivors-driven crash recovery as RunResilient: the survivors'
// engines re-emulate in-process with the lost worker's engines fail-stopped,
// and Result.Recovery reports the remap.
func (sc *Scenario) RunDistributed(ctx context.Context, a mapping.Approach, workers []dist.Conn, opt dist.Options) (*Outcome, error) {
	part, profRun, err := sc.Partition(ctx, a)
	if err != nil {
		return nil, err
	}
	w, err := sc.Workload()
	if err != nil {
		return nil, err
	}
	routes, err := sc.Routes()
	if err != nil {
		return nil, err
	}
	spec := &dist.RunSpec{
		Cfg: emu.Config{
			Network:      sc.Network,
			Routes:       routes,
			Assignment:   part,
			NumEngines:   sc.Engines,
			Workload:     w,
			Cost:         sc.Cost,
			EndTime:      sc.EndTime,
			Transport:    sc.Transport,
			EngineSpeeds: sc.EngineSpeeds,
			Faults:       sc.Faults,
		},
		Routing:   sc.routingOptions(),
		Telemetry: sc.newTelemetry(),
		Trace:     sc.Trace,
		Health:    sc.ClusterHealth,
		EmuOpts:   sc.runOptions(ctx),
		OnWorkerLoss: func(f emu.EngineFailure) ([]int, error) {
			var survivors []int
			for e, ok := range f.Alive {
				if ok {
					survivors = append(survivors, e)
				}
			}
			in, err := sc.mappingInput()
			if err != nil {
				return nil, err
			}
			next, _, err := mapping.RemapSurvivors(in, f.Assignment, survivors, f.Loads)
			return next, err
		},
	}
	res, err := dist.Run(ctx, spec, workers, opt)
	if err != nil {
		return nil, fmt.Errorf("core: distributed %s on %s: %w", a, sc.Name, err)
	}
	return &Outcome{Approach: a, Assignment: part, Result: res, ProfileRun: profRun}, nil
}
