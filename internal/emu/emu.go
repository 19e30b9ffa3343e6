// Package emu is the distributed network emulator — the reproduction of
// MaSSF, the paper's large-scale network emulation system inside MicroGrid.
//
// A run takes a virtual network, an assignment of its nodes to
// simulation-engine nodes (the partition under study), and a traffic
// workload. Every flow becomes a train of packet groups forwarded hop by hop
// along the routed path; each hop charges one kernel event per packet to the
// engine owning that node ("the load of a simulation engine node [is] the
// simulation kernel event rate, essentially one per packet", §4.1.1). Links
// model serialization (bytes/bandwidth) with FIFO queueing and propagation
// latency; engine-to-engine hand-offs ride the conservative DES kernel whose
// lookahead is the minimum latency cut by the assignment.
//
// The run reports the paper's three metrics:
//
//   - load imbalance: normalized standard deviation of per-engine kernel
//     event counts,
//   - application emulation time: virtual-time-paced execution, where a
//     window takes max(its width, the busiest engine's processing cost) of
//     real time — compute-bound stretches run in real time, overloaded
//     windows dilate (MicroGrid pacing),
//   - network emulation time: the same event stream replayed as fast as
//     possible (no real-time floor), the paper's isolated replay metric.
//
// When profiling is enabled the emulator additionally runs the NetFlow-like
// accounting of §3.3 on every node, feeding the PROFILE mapping.
package emu

import (
	"context"
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netflow"
	"repro/internal/netgraph"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// CostModel prices the work of one simulation-engine node, calibrated to the
// paper's cluster (dual 550 MHz Pentium-II nodes on switched 100 Mb/s
// Ethernet, §4.1.2).
type CostModel struct {
	// PerEvent is the CPU cost of one kernel event (one packet hop).
	PerEvent float64
	// PerRemote is the cost of shipping one simulation event to another
	// engine over the cluster network.
	PerRemote float64
	// PerWindow is the per-barrier synchronization cost.
	PerWindow float64
}

// PentiumIICluster is the default cost model: ~50 µs of packet processing
// (tens of kcycles of emulation logic — routing, queueing, TCP bookkeeping —
// per packet on a 550 MHz CPU), ~120 µs per cross-engine message (small TCP
// message on 100 Mb/s Ethernet), ~30 µs per window synchronization. The sync
// term is deliberately modest: MaSSF's conservative protocol exchanges
// per-neighbor null messages asynchronously rather than running a full
// cluster barrier, so its amortized per-window cost is far below a barrier's.
var PentiumIICluster = CostModel{
	PerEvent:  50e-6,
	PerRemote: 120e-6,
	PerWindow: 30e-6,
}

func (c CostModel) withDefaults() CostModel {
	if c.PerEvent <= 0 {
		c.PerEvent = PentiumIICluster.PerEvent
	}
	if c.PerRemote <= 0 {
		c.PerRemote = PentiumIICluster.PerRemote
	}
	if c.PerWindow <= 0 {
		c.PerWindow = PentiumIICluster.PerWindow
	}
	return c
}

// Config describes one emulation run.
type Config struct {
	// Network is the virtual topology. Required.
	Network *netgraph.Network
	// Routes is the route oracle; when nil the run uses the network's
	// shared automatic backend (flat below netgraph.AutoFlatMaxNodes nodes,
	// lazy beyond). WithRouting overrides it per run.
	Routes netgraph.Routing
	// Assignment maps every node to a simulation engine in [0, NumEngines).
	// Required.
	Assignment []int
	// NumEngines is the number of simulation-engine nodes. Required.
	NumEngines int
	// Workload is the traffic to emulate. Required (may be empty).
	Workload traffic.Workload
	// ChunkBytes is the packet-group granularity: flows are forwarded in
	// chunks of at most this many bytes, each chunk one DES event per hop
	// while still charging per-packet load. Default 64 KiB.
	ChunkBytes int64
	// MTU is the packet size used to convert bytes to kernel events.
	// Default 1500.
	MTU int64
	// Cost prices engine work; zero fields default to PentiumIICluster.
	Cost CostModel
	// Profile enables NetFlow collection on every node.
	Profile bool
	// BucketWidth is the load-series granularity in virtual seconds
	// (default 2, the paper's fine-grained interval).
	BucketWidth float64
	// EndTime optionally truncates the emulation.
	EndTime float64
	// Transport selects how flows release their packet groups at the
	// source: Blast (default) or TCPSlowStart. See TransportMode.
	Transport TransportMode
	// EngineSpeeds optionally gives relative processing speeds per engine
	// (heterogeneous clusters): an engine with speed 2 handles a kernel
	// event in half the base PerEvent time. nil or wrong length means all
	// engines run at speed 1 (the paper's homogeneity assumption, §5).
	EngineSpeeds []float64
	// BufferBytes, when positive, bounds each link direction's FIFO queue:
	// a packet group arriving while the transmitter backlog exceeds the
	// buffer is tail-dropped, as a real router queue would. 0 (default)
	// models unbounded buffers.
	BufferBytes int64
	// MinLookahead floors the synchronization window (default 100 µs) so a
	// pathological partition cannot drive the window count to infinity.
	MinLookahead float64
	// Sequential is ignored: the in-process kernel has a single mode.
	//
	// Deprecated: ignored.
	Sequential bool

	// Faults optionally injects a deterministic fault schedule — engine
	// crashes, straggler slowdowns, cluster-link degradation (see
	// internal/faults). Stragglers and degradations scale the cost model;
	// crashes trigger checkpoint rollback and OnCrash-driven remapping.
	Faults *faults.Schedule
	// CheckpointEvery is the virtual-time interval between barrier
	// checkpoints when Faults contains crashes (default
	// DefaultCheckpointEvery). Recovery rolls back to the latest checkpoint,
	// so the interval bounds how much emulation a crash forces to replay.
	CheckpointEvery float64
	// OnCrash computes the recovery assignment after an engine crash: given
	// the failure context it must return a full node→engine assignment using
	// only surviving engines. Required when Faults contains crashes — the
	// emulator detects and rolls back, but repartitioning policy lives with
	// the caller (core.RunResilient supplies the remapping and naive
	// fallbacks).
	OnCrash func(f EngineFailure) ([]int, error)
	// MigrationCost is the modeled recovery stall per virtual node that
	// changes engines (default DefaultMigrationCost, the dynamic-remap state
	// transfer model).
	MigrationCost float64

	// Elastic schedules engine-set membership changes: at each Resize.At the
	// run pauses at the next window barrier, repartitions the virtual nodes
	// onto the new engine set, and resumes — the in-process reference for the
	// distributed join/drain protocol. Entries must be sorted by At.
	Elastic []Resize
	// OnResize computes the post-resize assignment for Elastic entries that
	// do not carry an explicit Assignment. Required when any entry omits one.
	OnResize func(ev ResizeEvent) ([]int, error)
}

// Result reports a completed run.
type Result struct {
	// Kernel is the raw DES statistics (windows, events, wall time).
	Kernel *des.Stats
	// Lookahead is the window width used, i.e. the minimum latency of any
	// link cut by the assignment.
	Lookahead float64
	// EngineLoads is the kernel-event count per engine.
	EngineLoads []float64
	// Imbalance is the paper's metric: stddev(EngineLoads)/mean.
	Imbalance float64
	// AppTime is the modeled application emulation time in seconds (paced).
	AppTime float64
	// NetTime is the modeled isolated network emulation (replay) time.
	NetTime float64
	// EngineBusy is the total processing cost per engine in seconds.
	EngineBusy []float64
	// EngineSeries is the per-engine kernel-event load bucketed at
	// BucketWidth — the basis of the fine-grained imbalance of Figure 8.
	EngineSeries *metrics.Series
	// NetFlow is the profiling collector; nil unless Config.Profile.
	NetFlow *netflow.Collector
	// RemoteEvents is the total number of engine-to-engine event messages.
	RemoteEvents int64
	// FlowFCTs[i] is flow i's completion time (delivery of its last byte at
	// the destination, measured from the flow's start), or -1 if the flow
	// did not complete within the run. Indexed like Workload.Flows.
	FlowFCTs []float64
	// DroppedPackets counts packets tail-dropped at full link buffers
	// (always 0 with the default unbounded buffers).
	DroppedPackets int64
	// LinkBytes[l] is the total bytes carried by link l over the run (both
	// directions) — the utilization view a network operator would pull.
	LinkBytes []int64
	// FinalAssignment is the node→engine assignment at the end of the run.
	// It equals Config.Assignment unless a crash recovery remapped nodes.
	FinalAssignment []int
	// Recovery reports fault handling; nil when the fault schedule had no
	// crashes.
	Recovery *Recovery
	// Membership reports elastic engine-set changes; nil when Config.Elastic
	// was empty.
	Membership *Membership
	// Obs is the aggregated observability summary — per-engine event,
	// charge, remote-send and queue counters, barrier wait, and recovery
	// lifecycle counts. nil unless the run was given WithStats or
	// WithRecorder.
	Obs *obs.RunStats
	// Telemetry is the final traffic-plane snapshot — engine traffic
	// matrix, link totals, queue-delay/FCT histograms and the per-window
	// timeline. nil unless the run was given WithTelemetry.
	Telemetry *telemetry.Snapshot
}

// FCTStats summarizes the completed flows' completion times: count, mean,
// and 95th percentile. Incomplete flows are excluded.
func (r *Result) FCTStats() (completed int, mean, p95 float64) {
	var done []float64
	for _, f := range r.FlowFCTs {
		if f >= 0 {
			done = append(done, f)
		}
	}
	if len(done) == 0 {
		return 0, 0, 0
	}
	return len(done), metrics.Mean(done), metrics.Percentile(done, 95)
}

// flowRun is the per-flow routing state shared read-only by all engines.
type flowRun struct {
	idx      int // position in the workload's flow list
	id       int
	src, dst int
	start    float64
	path     []int // node IDs, src..dst
	links    []int // link IDs, len(path)-1
	bytes    int64
	rtt      float64 // 2x one-way path latency (for TCP pacing)
	tag      string

	// full[h] and tail[h] are the flow's two possible packet-group payloads
	// at hop h, precomputed at prepare time. A flow's chunks all carry
	// ChunkBytes except a final remainder, so every chunk event on the hot
	// path reuses one of these immutable shared values by pointer instead of
	// boxing a fresh payload per forwarded event. tail is nil when the flow's
	// size divides evenly.
	full []chunkArrival
	tail []chunkArrival
}

// flowStart injects a flow at its source host.
type flowStart struct {
	flow *flowRun
}

// chunkArrival is one packet group arriving at path[hop]. Chunk events are
// scheduled as *chunkArrival pointers to the flow's precomputed full/tail
// payloads; handlers treat them as immutable (the same pointer may be pending
// in several queues and in checkpoint snapshots at once).
type chunkArrival struct {
	flow    *flowRun
	hop     int
	packets int64
	bytes   int64
}

// chunkAt returns the shared payload for (flow, hop, packets, bytes),
// falling back to a fresh value for shapes that don't match the flow's
// precomputed chunks (only reachable via malformed wire events).
func (e *emulation) chunkAt(f *flowRun, hop int, packets, bytes int64) *chunkArrival {
	if bytes == e.cfg.ChunkBytes && hop < len(f.full) && f.full[hop].packets == packets {
		return &f.full[hop]
	}
	if hop < len(f.tail) && f.tail[hop].bytes == bytes && f.tail[hop].packets == packets {
		return &f.tail[hop]
	}
	return &chunkArrival{flow: f, hop: hop, packets: packets, bytes: bytes}
}

// Lookahead returns the synchronization window implied by an assignment: the
// minimum latency among links whose endpoints live on different engines.
// The floor never overrides a real cut-link latency (that would break
// causality); it only applies when no link is cut (single-engine runs),
// where any window width is safe.
func Lookahead(nw *netgraph.Network, assignment []int, minLookahead float64) float64 {
	if minLookahead <= 0 {
		minLookahead = 100e-6
	}
	min := math.Inf(1)
	max := 0.0
	for _, l := range nw.Links {
		if l.Latency > max {
			max = l.Latency
		}
		if assignment[l.A] != assignment[l.B] && l.Latency < min {
			min = l.Latency
		}
	}
	if math.IsInf(min, 1) {
		min = max
		if min < minLookahead {
			min = minLookahead
		}
	}
	if min <= 0 {
		min = 1e-9 // zero-latency cut link: degenerate but still correct
	}
	return min
}

// Run executes one emulation and returns its metrics. The base Config says
// what to emulate; Options say how to run it (observability recorders,
// cancellation, cost-model overrides) — see WithRecorder, WithStats,
// WithContext, WithCostModel.
func Run(cfg Config, opts ...Option) (*Result, error) {
	var o runOptions
	o.apply(opts)
	e, err := prepare(&cfg, &o)
	if err != nil {
		return nil, err
	}

	desCfg := e.kernelConfig()
	desCfg.Observer = e.observe
	desCfg.Recorder = e.rec
	if o.ctx != nil || cfg.Faults.HasCrashes() || len(cfg.Elastic) > 0 {
		// Cancellation is observed between windows, never mid-handler; the
		// crash-injection hook target is installed by runResilient once the
		// kernel exists, and the indirection keeps des.Config construction
		// simple.
		desCfg.OnBarrier = func(ws, we float64) error {
			if e.ctx != nil {
				if cerr := e.ctx.Err(); cerr != nil {
					return fmt.Errorf("emu: run canceled at window [%g,%g): %w", ws, we, cerr)
				}
			}
			if e.barrier != nil {
				return e.barrier(ws, we)
			}
			return nil
		}
	}
	kernel, err := des.New(desCfg)
	if err != nil {
		return nil, err
	}
	if err = e.seed(kernel, nil); err != nil {
		return nil, err
	}

	stats, recovery, err := e.runResilient(kernel)
	if err != nil {
		return nil, err
	}
	return e.buildResult(stats, recovery), nil
}

// prepare validates cfg (applying defaults in place), resolves every flow's
// route, and builds the emulation state an engine set shares — the setup half
// of Run, reused verbatim by the distributed worker (DistLocal) and
// coordinator (DistMerge) so all three construct bit-identical state.
func prepare(cfg *Config, o *runOptions) (*emulation, error) {
	if o.cost != nil {
		cfg.Cost = *o.cost
	}
	if err := validate(cfg); err != nil {
		return nil, err
	}
	if o.ctx != nil {
		if err := o.ctx.Err(); err != nil {
			return nil, fmt.Errorf("emu: run canceled before start: %w", err)
		}
	}
	rec, runStats := o.recorder()
	nw := cfg.Network
	rt := cfg.Routes
	if o.routes != nil {
		rt = o.routes
	}
	if rt == nil {
		// Callers running a pipeline should thread one Routing through
		// (core.Scenario.Routes() is the memoized source); the shared cache
		// keeps even bare emu.Run loops from rebuilding routing, and the
		// automatic policy keeps large topologies off the O(n²) flat table.
		rt = nw.AutoRouting()
	}

	// Resolve flow routes up front; routes are static for a run. The chunk
	// payloads each flow can ever carry (full-size groups plus an optional
	// tail remainder, per hop) are precomputed here so the forwarding hot
	// path schedules shared immutable pointers instead of boxing a payload
	// per event.
	fullPackets := (cfg.ChunkBytes + cfg.MTU - 1) / cfg.MTU
	flows := make([]*flowRun, 0, len(cfg.Workload.Flows))
	for _, f := range cfg.Workload.Flows {
		path, links := nw.RoutePath(rt, f.Src, f.Dst)
		if path == nil {
			return nil, fmt.Errorf("%w: flow %d has no route %d -> %d", ErrBadConfig, f.ID, f.Src, f.Dst)
		}
		var oneWay float64
		for _, lid := range links {
			oneWay += nw.Links[lid].Latency
		}
		fr := &flowRun{
			idx: len(flows),
			id:  f.ID, src: f.Src, dst: f.Dst, start: f.Start,
			path: path, links: links, bytes: f.Bytes, rtt: 2 * oneWay, tag: f.Tag,
		}
		if f.Bytes >= cfg.ChunkBytes {
			fr.full = make([]chunkArrival, len(path))
			for h := range fr.full {
				fr.full[h] = chunkArrival{flow: fr, hop: h, packets: fullPackets, bytes: cfg.ChunkBytes}
			}
		}
		if tailBytes := f.Bytes % cfg.ChunkBytes; tailBytes > 0 {
			tp := (tailBytes + cfg.MTU - 1) / cfg.MTU
			fr.tail = make([]chunkArrival, len(path))
			for h := range fr.tail {
				fr.tail[h] = chunkArrival{flow: fr, hop: h, packets: tp, bytes: tailBytes}
			}
		}
		flows = append(flows, fr)
	}

	duration := cfg.Workload.Duration
	if cfg.EndTime > 0 && cfg.EndTime < duration {
		duration = cfg.EndTime
	}
	if duration <= 0 {
		duration = 1
	}

	// Per-(link,direction) transmitter state. Direction 0 carries A->B
	// traffic and is owned by A's engine; direction 1 by B's. Exactly one
	// engine writes each slot, so no synchronization is needed. The same
	// ownership argument covers the per-direction byte counters, and a
	// flow's delivery state is written only by its destination's engine.
	busyUntil := make([][2]float64, len(nw.Links))
	linkBytes := make([][2]int64, len(nw.Links))
	drops := make([][2]int64, len(nw.Links))
	delivered := make([]int64, len(flows))
	fcts := make([]float64, len(flows))
	for i := range fcts {
		fcts[i] = -1
	}

	var collector *netflow.Collector
	if cfg.Profile {
		collector = netflow.NewCollector(nw.NumNodes(), duration, cfg.BucketWidth)
	}
	if o.tel != nil {
		// Size the traffic-plane collector to this run; its series shares the
		// NetFlow bucketing so ToProfile is numerically interchangeable with
		// a Summarize of the side-channel.
		o.tel.Reset(telemetry.Dims{
			Engines:     cfg.NumEngines,
			Nodes:       nw.NumNodes(),
			Links:       len(nw.Links),
			Duration:    duration,
			BucketWidth: cfg.BucketWidth,
		})
	}

	buckets := int(duration/cfg.BucketWidth) + 1
	engineSeries := metrics.NewSeries(cfg.BucketWidth, cfg.NumEngines, buckets)

	lookahead := Lookahead(nw, cfg.Assignment, cfg.MinLookahead)
	cost := cfg.Cost.withDefaults()
	speeds := cfg.EngineSpeeds
	if len(speeds) != cfg.NumEngines {
		speeds = nil
	}

	// Time model. A strict per-window max would over-penalize sub-
	// millisecond burstiness: a real engine that falls briefly behind in
	// one lookahead window simply drains its backlog while its peers wait
	// at most one barrier, so load effectively averages over short spans.
	// We therefore aggregate compute cost per engine over BucketWidth
	// buckets (the paper's own 2-second measurement interval) and take the
	// cross-engine max per bucket, while synchronization is still charged
	// per executed window — the term the latency objective minimizes.
	// The accumulators live on the emulation struct so a crash recovery can
	// snapshot and roll them back together with the kernel's queues.
	bucketCost := make([][]float64, buckets)
	for b := range bucketCost {
		bucketCost[b] = make([]float64, cfg.NumEngines)
	}
	e := &emulation{
		cfg:             cfg,
		ctx:             o.ctx,
		rec:             rec,
		runStats:        runStats,
		nw:              nw,
		flows:           flows,
		duration:        duration,
		lookahead:       lookahead,
		assignment:      append([]int(nil), cfg.Assignment...),
		busyUntil:       busyUntil,
		linkBytes:       linkBytes,
		drops:           drops,
		delivered:       delivered,
		fcts:            fcts,
		collector:       collector,
		tel:             o.tel,
		series:          engineSeries,
		cost:            cost,
		speeds:          speeds,
		buckets:         buckets,
		engineBusy:      make([]float64, cfg.NumEngines),
		bucketCost:      bucketCost,
		bucketSync:      make([]float64, buckets),
		bucketBusyWidth: make([]float64, buckets),
		trace:           o.trace,
	}
	return e, nil
}

// kernelConfig is the handler-and-width core of the kernel configuration;
// Run layers the in-process observer and barrier hooks on top, while a
// distributed worker runs it bare (the coordinator owns the barrier).
func (e *emulation) kernelConfig() des.Config {
	return des.Config{
		NumLPs:    e.cfg.NumEngines,
		Lookahead: e.lookahead,
		Handler:   e.handle,
		EndTime:   e.cfg.EndTime,
	}
}

// seed schedules every flow's start event. The per-LP sequence-number streams
// depend only on the workload's flow order, so a worker seeding just its
// local engines (local != nil) assigns exactly the numbers the in-process
// run would.
func (e *emulation) seed(kernel *des.Kernel, local []bool) error {
	for _, fr := range e.flows {
		if e.cfg.EndTime > 0 && fr.start >= e.cfg.EndTime {
			continue
		}
		lp := e.assignment[fr.src]
		if local != nil && !local[lp] {
			continue
		}
		if err := kernel.Schedule(lp, fr.start, flowStart{flow: fr}); err != nil {
			return err
		}
	}
	return nil
}

// buildResult folds the time model and assembles the Result — the reporting
// half of Run, shared with the distributed coordinator.
func (e *emulation) buildResult(stats *des.Stats, recovery *Recovery) *Result {
	cfg := e.cfg
	buckets := e.buckets
	e.tel.Finish(stats.VirtualEnd)

	var appTime, netTime float64
	for b := 0; b < buckets; b++ {
		maxCost := 0.0
		for lp := 0; lp < cfg.NumEngines; lp++ {
			if e.bucketCost[b][lp] > maxCost {
				maxCost = e.bucketCost[b][lp]
			}
		}
		c := maxCost + e.bucketSync[b]
		netTime += c
		if c < e.bucketBusyWidth[b] {
			c = e.bucketBusyWidth[b]
		}
		appTime += c
	}
	// Idle virtual time still elapses in a real-time-paced emulation.
	appTime += stats.SkippedTime
	if recovery != nil {
		// Recovery stalls (failure detection, rollback re-emulation,
		// migration state transfer) dilate the paced execution.
		appTime += recovery.Downtime
	}
	if e.membership != nil {
		// Elastic resizes stall only for state transfer — no rollback, the
		// barrier snapshot is already the resume point.
		appTime += e.membership.Stall
	}

	loads := make([]float64, cfg.NumEngines)
	for lp := range loads {
		loads[lp] = float64(stats.Charges[lp])
	}
	var remoteTotal int64
	for _, r := range stats.RemoteSends {
		remoteTotal += r
	}

	linkTotals := make([]int64, len(e.nw.Links))
	var dropped int64
	for l := range e.linkBytes {
		linkTotals[l] = e.linkBytes[l][0] + e.linkBytes[l][1]
		dropped += e.drops[l][0] + e.drops[l][1]
	}
	var telSnap *telemetry.Snapshot
	if e.tel != nil {
		telSnap = e.tel.Snapshot()
	}
	return &Result{
		Kernel:          stats,
		Lookahead:       e.lookahead,
		EngineLoads:     loads,
		Imbalance:       metrics.Imbalance(loads),
		AppTime:         appTime,
		NetTime:         netTime,
		EngineBusy:      e.engineBusy,
		EngineSeries:    e.series,
		NetFlow:         e.collector,
		RemoteEvents:    remoteTotal,
		FlowFCTs:        e.fcts,
		LinkBytes:       linkTotals,
		DroppedPackets:  dropped,
		FinalAssignment: append([]int(nil), e.assignment...),
		Recovery:        recovery,
		Membership:      e.membership,
		Obs:             e.runStats,
		Telemetry:       telSnap,
	}
}

func validate(cfg *Config) error {
	if cfg.Network == nil {
		return fmt.Errorf("%w: Network is required", ErrBadConfig)
	}
	if cfg.NumEngines < 1 {
		return fmt.Errorf("%w: NumEngines = %d, must be >= 1", ErrBadConfig, cfg.NumEngines)
	}
	if len(cfg.Assignment) != cfg.Network.NumNodes() {
		return fmt.Errorf("%w: assignment covers %d nodes, network has %d",
			ErrBadConfig, len(cfg.Assignment), cfg.Network.NumNodes())
	}
	for n, e := range cfg.Assignment {
		if e < 0 || e >= cfg.NumEngines {
			return fmt.Errorf("%w: node %d assigned to engine %d, want [0,%d)",
				ErrBadConfig, n, e, cfg.NumEngines)
		}
	}
	if err := cfg.Workload.Validate(cfg.Network); err != nil {
		return fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 64 << 10
	}
	if cfg.MTU <= 0 {
		cfg.MTU = 1500
	}
	if cfg.BucketWidth <= 0 {
		cfg.BucketWidth = 2
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.NumEngines); err != nil {
			return fmt.Errorf("%w: %w", ErrBadConfig, err)
		}
		if cfg.Faults.HasCrashes() {
			if cfg.OnCrash == nil {
				return fmt.Errorf("%w: fault schedule contains crashes but no OnCrash remapper is configured",
					ErrBadConfig)
			}
			if cfg.CheckpointEvery <= 0 {
				cfg.CheckpointEvery = DefaultCheckpointEvery
			}
		}
	}
	if cfg.MigrationCost <= 0 {
		cfg.MigrationCost = DefaultMigrationCost
	}
	if len(cfg.Elastic) > 0 {
		prevAt := 0.0
		needHook := false
		for i, r := range cfg.Elastic {
			if r.At <= prevAt {
				return fmt.Errorf("%w: elastic resize %d at t=%g must come after t=%g and be positive",
					ErrBadConfig, i, r.At, prevAt)
			}
			prevAt = r.At
			if len(r.Engines) == 0 {
				return fmt.Errorf("%w: elastic resize %d has an empty engine set", ErrBadConfig, i)
			}
			seen := make(map[int]bool, len(r.Engines))
			for _, eng := range r.Engines {
				if eng < 0 || eng >= cfg.NumEngines {
					return fmt.Errorf("%w: elastic resize %d targets engine %d, want [0,%d)",
						ErrBadConfig, i, eng, cfg.NumEngines)
				}
				if seen[eng] {
					return fmt.Errorf("%w: elastic resize %d lists engine %d twice", ErrBadConfig, i, eng)
				}
				seen[eng] = true
			}
			if r.Assignment == nil {
				needHook = true
				continue
			}
			if len(r.Assignment) != cfg.Network.NumNodes() {
				return fmt.Errorf("%w: elastic resize %d assignment covers %d nodes, network has %d",
					ErrBadConfig, i, len(r.Assignment), cfg.Network.NumNodes())
			}
			for v, eng := range r.Assignment {
				if !seen[eng] {
					return fmt.Errorf("%w: elastic resize %d assigns node %d to engine %d outside the new set",
						ErrBadConfig, i, v, eng)
				}
			}
		}
		if needHook && cfg.OnResize == nil {
			return fmt.Errorf("%w: elastic resizes without explicit assignments need an OnResize policy",
				ErrBadConfig)
		}
		if cfg.CheckpointEvery <= 0 {
			cfg.CheckpointEvery = DefaultCheckpointEvery
		}
	}
	return nil
}

// emulation is the handler state shared by all engines during a run. Every
// field below assignment is mutated as the run progresses and is part of the
// barrier-checkpoint snapshot; assignment itself only changes between kernel
// segments during crash recovery.
type emulation struct {
	cfg      *Config
	ctx      context.Context
	rec      obs.Recorder
	runStats *obs.RunStats
	nw       *netgraph.Network
	// flows, duration and lookahead are fixed at prepare time and shared
	// read-only by every engine (and every worker process, which rebuilds
	// them identically from the shipped scenario).
	flows     []*flowRun
	duration  float64
	lookahead float64

	assignment []int
	busyUntil  [][2]float64
	linkBytes  [][2]int64
	drops      [][2]int64
	delivered  []int64
	fcts       []float64
	collector  *netflow.Collector
	tel        *telemetry.Collector
	series     *metrics.Series

	// Time-model accumulators, filled by the per-window observer.
	cost            CostModel
	speeds          []float64
	buckets         int
	engineBusy      []float64
	bucketCost      [][]float64
	bucketSync      []float64
	bucketBusyWidth []float64

	// trace is the cluster tracing timeline; nil when tracing is off (the
	// observer then takes a single nil check and allocates nothing). spanBuf
	// is its per-window scratch, reused across windows.
	trace   *obs.Timeline
	spanBuf []obs.Span

	// barrier is the fault-injection hook target, installed by runResilient
	// when the schedule contains crashes.
	barrier func(ws, we float64) error
	// membership accumulates elastic resize bookkeeping; nil unless
	// Config.Elastic is set (or a distributed coordinator drives resizes).
	membership *Membership
}

func (e *emulation) speedOf(lp int) float64 {
	if e.speeds == nil || e.speeds[lp] <= 0 {
		return 1
	}
	return e.speeds[lp]
}

func (e *emulation) bucketOf(t float64) int {
	b := int(t / e.cfg.BucketWidth)
	if b < 0 {
		b = 0
	}
	if b >= e.buckets {
		b = e.buckets - 1
	}
	return b
}

// observe accumulates one executed window into the time model. Straggler and
// cluster-degradation faults scale the cost terms here: a slowed engine pays
// more per kernel event, a degraded cluster network more per remote send.
// The charges/remote slices are the kernel's recycled window buffers — they
// are fully consumed before returning and never retained (the telemetry
// Commit below folds charges into its own arrays the same way).
func (e *emulation) observe(start, end float64, charges, remote []int64) {
	b := e.bucketOf(start)
	if e.cfg.Faults == nil && e.speeds == nil {
		// Fault-free homogeneous fast path: no per-LP schedule lookups.
		bc := e.bucketCost[b]
		for lp := 0; lp < e.cfg.NumEngines; lp++ {
			c := float64(charges[lp])*e.cost.PerEvent + float64(remote[lp])*e.cost.PerRemote
			e.engineBusy[lp] += c
			bc[lp] += c
			e.series.Add(start, lp, float64(charges[lp]))
		}
	} else {
		for lp := 0; lp < e.cfg.NumEngines; lp++ {
			evCost := float64(charges[lp]) * e.cost.PerEvent * e.cfg.Faults.SlowdownAt(lp, start)
			rmCost := float64(remote[lp]) * e.cost.PerRemote * e.cfg.Faults.RemoteFactorAt(start)
			c := (evCost + rmCost) / e.speedOf(lp)
			e.engineBusy[lp] += c
			e.bucketCost[b][lp] += c
			e.series.Add(start, lp, float64(charges[lp]))
		}
	}
	e.bucketSync[b] += e.cost.PerWindow
	e.bucketBusyWidth[b] += end - start
	// Engines are quiesced at the barrier, so the telemetry collector can
	// fold the window and republish its live snapshot here.
	e.tel.Commit(start, end, charges)
	if e.trace != nil {
		e.traceWindow(start, end, charges, remote)
	}
}

// traceWindow commits one window's compute spans to the tracing timeline.
// Busy is the same modeled cost observe just accumulated — recomputed here,
// on the tracing-only branch, so the traced and untraced hot paths stay
// byte-identical. Spans derive purely from merged counters and the cost
// model, so the timeline's virtual fields are deterministic across
// in-process, loopback and TCP executions. The gating worker of each window
// also feeds the RunStats straggler attribution, bypassing the Recorder
// stream so recorded trace artifacts are unchanged by tracing.
func (e *emulation) traceWindow(start, end float64, charges, remote []int64) {
	if e.spanBuf == nil {
		// First traced window: size the span buffer for the engine count and
		// skip the timeline's early append doublings. Idle-skip makes the true
		// window count unpredictable, so this is a floor, not an estimate.
		e.spanBuf = make([]obs.Span, 0, e.cfg.NumEngines)
		e.trace.Reserve(64 * (e.cfg.NumEngines + 1))
	}
	spans := e.spanBuf[:0]
	for lp := 0; lp < e.cfg.NumEngines; lp++ {
		if charges[lp] == 0 && remote[lp] == 0 {
			continue
		}
		var c float64
		if e.cfg.Faults == nil && e.speeds == nil {
			c = float64(charges[lp])*e.cost.PerEvent + float64(remote[lp])*e.cost.PerRemote
		} else {
			evCost := float64(charges[lp]) * e.cost.PerEvent * e.cfg.Faults.SlowdownAt(lp, start)
			rmCost := float64(remote[lp]) * e.cost.PerRemote * e.cfg.Faults.RemoteFactorAt(start)
			c = (evCost + rmCost) / e.speedOf(lp)
		}
		spans = append(spans, obs.Span{
			Kind: obs.SpanCompute, Engine: lp, Start: start, End: end, Busy: c,
		})
	}
	e.spanBuf = spans
	st := e.trace.CommitWindow(start, end, spans)
	if e.runStats != nil && st.Worker >= 0 {
		e.runStats.RecordGated(st.Worker, st.Busy, st.Lag)
	}
}

// handle processes one DES event on engine lp.
func (e *emulation) handle(lp int, t float64, data any, s *des.Scheduler) {
	switch ev := data.(type) {
	case flowStart:
		if e.cfg.Transport == TCPSlowStart {
			e.startFlowTCP(t, ev.flow, s)
		} else {
			e.startFlowBlast(t, ev.flow, s)
		}
	case tcpRound:
		e.releaseRound(t, ev, s)
	case *chunkArrival:
		e.arrive(t, ev, s)
	default:
		// An unknown payload is a protocol error (e.g. a malformed event
		// shipped by a remote peer), not a programming invariant worth dying
		// for: poison the run the same way des handles lookahead violations,
		// so a distributed worker survives and reports the error.
		s.Fail(fmt.Errorf("%w: unknown event payload %T", ErrBadConfig, data))
	}
}

// startFlowBlast splits the flow into chunks and forwards each from the
// source immediately, reusing the precomputed shared payloads.
func (e *emulation) startFlowBlast(t float64, f *flowRun, s *des.Scheduler) {
	remaining := f.bytes
	for remaining > 0 {
		var c *chunkArrival
		if remaining >= e.cfg.ChunkBytes {
			c = &f.full[0]
		} else {
			c = &f.tail[0]
		}
		remaining -= c.bytes
		e.arrive(t, c, s)
	}
}

// arrive processes a chunk at node path[hop]: charge the kernel events,
// account NetFlow, and forward over the next link if not at the destination.
// c is a shared immutable payload — never written, only replaced by its
// next-hop twin when forwarding.
func (e *emulation) arrive(t float64, c *chunkArrival, s *des.Scheduler) {
	f := c.flow
	node := f.path[c.hop]
	s.Charge(c.packets)
	if e.collector != nil {
		inLink := -1
		if c.hop > 0 {
			inLink = f.links[c.hop-1]
		}
		e.collector.Observe(node, f.id, f.src, f.dst, inLink, c.packets, c.bytes, t)
	}
	if e.tel != nil {
		// Receive-side accounting, at the same site and granularity as the
		// NetFlow side-channel so ToProfile matches a Summarize exactly. The
		// rx slot (inLink, inDir) is owned by this node's engine: direction 0
		// always delivers to the link's B endpoint, direction 1 to A.
		inLink, inDir := -1, 0
		if c.hop > 0 {
			inLink = f.links[c.hop-1]
			if e.nw.Links[inLink].B == f.path[c.hop-1] {
				inDir = 1
			}
		}
		e.tel.ObserveNode(node, inLink, inDir, c.packets, t)
	}
	if c.hop == len(f.path)-1 {
		// Delivered: track the flow's completion at the destination.
		e.delivered[f.idx] += c.bytes
		if e.delivered[f.idx] >= f.bytes && e.fcts[f.idx] < 0 {
			e.fcts[f.idx] = t - f.start
			if e.tel != nil {
				e.tel.ObserveFlowComplete(e.assignment[node], e.fcts[f.idx])
			}
		}
		return
	}

	lid := f.links[c.hop]
	link := &e.nw.Links[lid]
	dir := 0
	if link.B == node {
		dir = 1
	}
	// FIFO transmitter: serialization after any queued chunks; with a
	// finite buffer, arrivals beyond the backlog limit are tail-dropped.
	depart := t
	if bu := e.busyUntil[lid][dir]; bu > depart {
		if e.cfg.BufferBytes > 0 {
			backlog := (bu - t) * link.Bandwidth / 8
			if backlog > float64(e.cfg.BufferBytes) {
				e.drops[lid][dir] += c.packets
				if e.tel != nil {
					e.tel.ObserveDrop(e.assignment[node], c.packets)
				}
				return
			}
		}
		depart = bu
	}
	wait := depart - t
	depart += float64(c.bytes*8) / link.Bandwidth
	e.busyUntil[lid][dir] = depart
	e.linkBytes[lid][dir] += c.bytes
	arrival := depart + link.Latency

	next := f.path[c.hop+1]
	if e.tel != nil {
		// Transmit-side accounting: the engine owning this node writes its
		// own matrix row and this (link, dir)'s tx slots.
		e.tel.ObserveForward(e.assignment[node], e.assignment[next], lid, dir,
			c.bytes, c.packets, wait)
	}
	s.Schedule(e.assignment[next], arrival, e.chunkAt(f, c.hop+1, c.packets, c.bytes))
}
