package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/emu"
	"repro/internal/mapping"
)

// BaselineRow is one partitioning strategy's outcome in the baseline
// comparison.
type BaselineRow struct {
	Approach  mapping.Approach
	Imbalance float64
	AppTime   float64
	Lookahead float64
}

// Baselines runs the §5 discussion as an experiment: the paper argues that
// the pre-existing strategies — manual/simple hierarchical partitioning and
// the randomized greedy k-cluster algorithm — "have not been demonstrated to
// give broadly robust results", and that its traffic-informed approaches
// beat them. This driver measures HIER, KCLUSTER, TOP, PLACE and PROFILE on
// the same TeraGrid + ScaLapack workload.
func Baselines(cfg Config) ([]BaselineRow, error) {
	cfg = cfg.withDefaults()
	sc, err := cfg.scenario("TeraGrid", "ScaLapack")
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

	var rows []BaselineRow
	evaluate := func(a mapping.Approach, assignment []int) error {
		res, err := emu.Run(emu.Config{
			Network:    sc.Network,
			Routes:     routes,
			Assignment: assignment,
			NumEngines: sc.Engines,
			Workload:   w,
		})
		if err != nil {
			return err
		}
		rows = append(rows, BaselineRow{
			Approach:  a,
			Imbalance: res.Imbalance,
			AppTime:   res.AppTime,
			Lookahead: res.Lookahead,
		})
		return nil
	}

	// Baselines first (traffic-blind), then the paper's approaches.
	for _, a := range mapping.BaselineApproaches() {
		in, err := sc.MappingInput()
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", a, err)
		}
		part, err := mapping.MapAny(a, in)
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", a, err)
		}
		if err := evaluate(a, part); err != nil {
			return nil, fmt.Errorf("baseline %s: %w", a, err)
		}
	}
	for _, a := range mapping.Approaches() {
		part, _, err := sc.Partition(context.Background(), a)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a, err)
		}
		if err := evaluate(a, part); err != nil {
			return nil, fmt.Errorf("%s: %w", a, err)
		}
	}
	return rows, nil
}

// RenderBaselines formats the comparison table.
func RenderBaselines(rows []BaselineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %12s %10s\n", "strategy", "imbalance", "app-time(s)", "lookahead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.3f %12.1f %9.2gms\n", r.Approach, r.Imbalance, r.AppTime, r.Lookahead*1e3)
	}
	return b.String()
}
