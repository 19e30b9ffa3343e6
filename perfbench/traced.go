package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// tracedRun measures the workload untraced once, then again with spans
// around every layer call, and reports the per-layer metrics. The traced
// pass must reproduce the untraced outputs exactly, or the breakdown would
// describe a different program.
func tracedRun(ctx context.Context, units []unit, state, workload string, seed int64) *report {
	rep := &report{}
	ref := runPass(ctx, units, nil)
	tr := NewTracer()
	tp := runPass(ctx, units, tr)

	checkDistAgainstInProcess(ctx, units, ref.Ops)
	for i, o := range tp.Ops {
		r := ref.Ops[i]
		if o.failed() || r.failed() {
			continue
		}
		if o.Digest != r.Digest || !slices.Equal(o.Assignment, r.Assignment) {
			o.fail("traced decomposition differs from the untraced run")
		}
	}
	rep.first = ref.Ops
	rep.ops = append(append(rep.ops, ref.Ops...), tp.Ops...)

	spans := tr.Spans()
	setLayers(rep, spans, tp, ref.Wall)
	path := filepath.Join(state, "spans", fmt.Sprintf("%s-%d.json", workload, seed))
	if err := writeSpans(path, spans, rep); err != nil {
		rep.notes = append(rep.notes, fmt.Sprintf("spans not written: %v", err))
	} else {
		rep.notes = append(rep.notes, "spans written to "+path)
	}
	return rep
}

// setLayers derives the per-layer metrics of a traced pass. Times are self
// times summed over the pass; counts are summed over its operations.
func setLayers(rep *report, spans []Span, tp passOut, untracedWall time.Duration) {
	self := SelfTimes(spans)
	sum := func(match func(string) bool) (d time.Duration, allocs, bytes uint64, gcs uint32) {
		for i, s := range spans {
			if match(s.Name) {
				d += self[i]
				allocs += s.Allocs
				bytes += s.AllocBytes
				gcs += s.GCs
			}
		}
		return
	}
	is := func(names ...string) func(string) bool {
		return func(n string) bool { return slices.Contains(names, n) }
	}
	secs := func(names ...string) float64 { d, _, _, _ := sum(is(names...)); return d.Seconds() }

	rep.set("topogen.build_s", secs("topogen.ByName"), "s")
	rep.set("traffic.generate_s", secs("traffic.Workload"), "s")
	rep.set("traffic.flows", float64(tp.Flows), "count")
	rep.set("traffic.predict_s", secs("traffic.Predict"), "s")
	rep.set("netgraph.routes_s", secs("netgraph.Routes"), "s")
	rep.set("netgraph.route_builds", float64(tp.RouteBuilds), "count")

	rep.set("mapping.top_s", secs("mapping.TopMap"), "s")
	rep.set("mapping.place_s", secs("mapping.PlaceMap"), "s")
	rep.set("mapping.profile_s", secs("mapping.ProfileMap"), "s")
	_, mAllocs, mBytes, _ := sum(is("mapping.TopMap", "mapping.PlaceMap", "mapping.ProfileMap"))
	rep.set("mapping.allocs", float64(mAllocs), "count")
	rep.set("mapping.alloc_mb", float64(mBytes)/(1<<20), "MB")
	rep.set("emu.profile_run_s", secs("emu.Run/profile"), "s")
	rep.set("netflow.summarize_s", secs("netflow.Summarize"), "s")

	emuD, eAllocs, eBytes, eGCs := sum(is("emu.Run"))
	var events, windows, remote, inprocEvents int64
	var cut, segments, rounds, moves, migrations, lookN int
	var look float64
	remap := map[core.RemapPolicy]float64{}
	for _, o := range tp.Ops {
		events += o.Events
		windows += o.Windows
		remote += o.Remote
		cut += o.CutLinks
		segments += o.Segments
		rounds += o.GameRounds
		moves += o.GameMoves
		migrations += o.Migrations
		if o.InProc {
			inprocEvents += o.Events
		}
		if o.Lookahead > 0 {
			look += o.Lookahead
			lookN++
		}
	}
	for i, s := range spans {
		if p, ok := strings.CutPrefix(s.Name, "core.RunDynamic/"); ok {
			remap[core.RemapPolicy(p)] += self[i].Seconds()
		}
	}
	rep.set("imbalance", meanImbalance(tp.Ops), "ratio")
	rep.set("mapping.cut_links", float64(cut), "count")
	rep.set("mapping.lookahead_ms", ratio(look, float64(lookN))*1000, "ms")
	rep.set("emu.run_s", emuD.Seconds(), "s")
	rep.set("emu.events_per_s", ratio(float64(inprocEvents), emuD.Seconds()), "1/s")
	rep.set("emu.allocs_per_event", ratio(float64(eAllocs), float64(inprocEvents)), "count")
	rep.set("emu.alloc_mb", float64(eBytes)/(1<<20), "MB")
	rep.set("emu.gc_cycles", float64(eGCs), "count")
	rep.set("emu.remote_events", float64(remote), "count")
	rep.set("des.events", float64(events), "count")
	rep.set("des.windows", float64(windows), "count")
	rep.set("des.events_per_window", ratio(float64(events), float64(windows)), "ratio")

	var frames, wire int64
	var wait, busy, handshake time.Duration
	var rtts []time.Duration
	for _, o := range tp.Ops {
		if d := o.Dist; d != nil {
			frames += d.CoordSent + d.CoordRecv
			wire += d.WireBytes
			wait += d.CoordWait
			busy += d.WorkerBusyMax
			rtts = append(rtts, d.RTTs...)
			if !d.FirstWindow.IsZero() {
				handshake += d.FirstWindow.Sub(d.FirstOp)
			}
		}
	}
	rep.set("dist.frames", float64(frames), "count")
	rep.set("dist.wire_mb", float64(wire)/(1<<20), "MB")
	rep.set("dist.coord_wait_s", wait.Seconds(), "s")
	rep.set("dist.worker_busy_s", busy.Seconds(), "s")
	rep.set("dist.window_rtt_us.p50", quantile(rtts, 0.50), "us")
	rep.set("dist.window_rtt_us.p99", quantile(rtts, 0.99), "us")
	rep.set("dist.handshake_s", handshake.Seconds(), "s")
	rep.set("dist.prewire_s", secs("dist.prewire"), "s")
	rep.set("dist.windows_s", secs("dist.windows"), "s")

	for _, p := range core.RemapPolicies() {
		rep.set("core.remap_s."+string(p), remap[p], "s")
	}
	rep.set("partition.game_rounds", float64(rounds), "count")
	rep.set("partition.game_moves_evaluated", float64(moves), "count")
	rep.set("core.segments", float64(segments), "count")
	rep.set("core.migrations", float64(migrations), "count")

	var top time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			top += s.Dur()
		}
	}
	rep.set("trace.wall_s", tp.Wall.Seconds(), "s")
	rep.set("trace.uncovered_s", (tp.Wall - top).Seconds(), "s")
	rep.set("tracing_overhead_s", (tp.Wall - untracedWall).Seconds(), "s")

	rep.notes = append(rep.notes, premises(rep)...)
}

// premises states, from the traced shares, whether the layer premises the
// benchmark was built on hold on this run.
func premises(rep *report) []string {
	v := func(n string) float64 { return rep.metrics[n].Value }
	wall := v("trace.wall_s")
	partition := v("mapping.top_s") + v("mapping.place_s") + v("mapping.profile_s") +
		v("emu.profile_run_s") + v("netflow.summarize_s") + v("traffic.predict_s")
	emuPhase := v("dist.handshake_s") + v("dist.windows_s")
	out := []string{
		fmt.Sprintf("coverage: top-level spans cover %.4f of %.4f s traced wall; uncovered %.4f s",
			wall-v("trace.uncovered_s"), wall, v("trace.uncovered_s")),
		fmt.Sprintf("share: partitioning (mapping calls, PROFILE pre-run, Summarize, Predict) %.3f of traced wall", ratio(partition, wall)),
		fmt.Sprintf("share: main emu.Run %.3f of traced wall", ratio(v("emu.run_s"), wall)),
	}
	if emuPhase > 0 {
		out = append(out, fmt.Sprintf("share: dist.coord_wait_s %.3f of the distributed emulation phase (%.4f s, handshake to last frame)",
			ratio(v("dist.coord_wait_s"), emuPhase), emuPhase))
	}
	return out
}

// quantile returns the q-quantile of ds in microseconds (nearest rank).
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i]) / float64(time.Microsecond)
}

func writeSpans(path string, spans []Span, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := SelfTimes(spans)
	type row struct {
		Span
		SelfNS time.Duration `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, self[i]}
	}
	b, err := json.MarshalIndent(struct {
		Spans   []row             `json:"spans"`
		Metrics map[string]metric `json:"metrics"`
		Notes   []string          `json:"notes"`
	}{rows, rep.metrics, rep.notes}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
