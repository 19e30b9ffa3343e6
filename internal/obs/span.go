package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Distributed window tracing. A Span is one timed interval of the
// conservative-window protocol — an engine computing a window, a worker
// waiting at the barrier for the window's critical path, wire transfer,
// checkpointing, migration. Workers emit wall-clock spans; the coordinator
// merges them with the deterministic modeled-time spans it derives from the
// window counters into one virtual-time-aligned cluster Timeline, which
// renders as a Chrome trace_event file (Perfetto-loadable) and feeds the
// online straggler-attribution report.
//
// Determinism contract: a span's virtual fields (Kind, Engine, Window,
// Start, End) and its modeled Busy seconds derive purely from the merged
// per-window counters and the cost model, so they are byte-identical across
// in-process, loopback and TCP executions of the same scenario — exactly
// like the result path. Wall is measured wall-clock and Worker reflects the
// deployment shape; both are excluded from the canonical form (mirroring
// dist.ResultJSON's wall-clock exclusions).

// SpanKind classifies a Span.
type SpanKind uint8

const (
	// SpanCompute is one engine executing one window's events.
	SpanCompute SpanKind = iota
	// SpanBarrier is a worker idling at the window barrier for the gating
	// (critical-path) worker to finish.
	SpanBarrier
	// SpanWireSend is a worker encoding and sending its window report.
	SpanWireSend
	// SpanWireRecv is a worker decoding and injecting barrier events.
	SpanWireRecv
	// SpanCheckpoint is a worker snapshotting at a checkpoint barrier.
	SpanCheckpoint
	// SpanMigrate is a worker reseating state at a membership barrier.
	SpanMigrate
)

var spanKindNames = [...]string{
	SpanCompute:    "compute",
	SpanBarrier:    "barrier-wait",
	SpanWireSend:   "wire-send",
	SpanWireRecv:   "wire-recv",
	SpanCheckpoint: "checkpoint",
	SpanMigrate:    "migrate",
}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return fmt.Sprintf("span(%d)", uint8(k))
}

// Span is one timed interval on the cluster timeline.
type Span struct {
	Kind SpanKind
	// Worker is the worker slot hosting the span (the Perfetto track). The
	// in-process run has no workers, so each engine is its own "worker".
	Worker int
	// Engine is the engine LP, or -1 for worker-level spans.
	Engine int
	// Window is the commit-order window index.
	Window int64
	// Start and End are the window's virtual-time bounds.
	Start, End float64
	// Busy is the modeled busy time in seconds (cost model × counters,
	// straggler factors included) — deterministic. Zero for wall-only kinds.
	Busy float64
	// Wall is measured wall-clock seconds — diagnostic, nondeterministic,
	// zero when unmeasured (e.g. in-process compute spans).
	Wall float64
}

// WorkerHealth is one worker's straggler-attribution summary.
type WorkerHealth struct {
	// Worker is the worker slot (or engine, in-process).
	Worker int
	// GatedWindows counts windows this worker's engines gated (held the
	// window critical path).
	GatedWindows int64
	// CriticalPath is the modeled seconds of critical path attributed to
	// this worker.
	CriticalPath float64
	// Share is CriticalPath over the run's total critical path (0..1).
	Share float64
}

// WindowStat is one committed window's attribution record.
type WindowStat struct {
	// Window is the commit-order index.
	Window int64
	// Worker gated the window (held its critical path); -1 when the window
	// had no active engine.
	Worker int
	// Busy is the gating worker's modeled busy seconds.
	Busy float64
	// Lag is the gap between the gating worker and the next-slowest worker's
	// modeled busy seconds (0 with fewer than two active workers).
	Lag float64
}

// Timeline is the merged cluster trace: deterministic modeled spans committed
// window by window by the observation plane, wall-clock spans merged in from
// worker SPANS frames, and the online straggler attribution both feed.
// Methods lock internally — the coordinator commits while a debug endpoint
// reads.
type Timeline struct {
	mu      sync.Mutex
	assign  map[int]int // engine -> worker; engines absent map to themselves
	spans   []Span
	windows int64

	// pendWall holds worker-measured compute wall times awaiting the next
	// CommitWindow, keyed by engine; other wall spans append directly.
	pendWall map[int]float64

	// gated[w] and crit[w] are worker w's gated-window count and critical
	// path seconds, indexed by worker like busy and mark.
	gated     []int64
	crit      []float64
	critTotal float64
	stats     []WindowStat // drained by DrainWindowStats

	// Per-commit scratch, reused so a window costs no allocations beyond the
	// amortized span append: busy[w] holds worker w's max engine busy for the
	// commit stamped in mark[w] (stamps start at 1, so zeroed slots are never
	// current), touched lists the workers active this commit.
	busy    []float64
	mark    []int64
	touched []int
}

// NewTimeline returns an empty cluster timeline.
func NewTimeline() *Timeline {
	return &Timeline{
		assign:   make(map[int]int),
		pendWall: make(map[int]float64),
	}
}

// Reset discards all spans, attribution and assignments — the recovery
// fallback replays a partial distributed run from time zero in-process, and
// the replay's timeline must not double-count the windows committed before
// the loss. Capacity is retained, so a reused timeline commits windows
// without re-paying the append growth.
func (t *Timeline) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.assign)
	t.spans = t.spans[:0]
	t.windows = 0
	clear(t.pendWall)
	clear(t.gated)
	clear(t.crit)
	t.critTotal = 0
	t.stats = t.stats[:0]
	// Stamps restart at 1 after a reset; stale marks from the previous run
	// would collide with them.
	for i := range t.mark {
		t.mark[i] = 0
	}
}

// Reserve pre-sizes the span store for an expected total span count, so a
// caller that can bound the run's window count (duration over window width
// times engines) avoids the append-doubling copies on the commit path. Purely
// an optimization; under-estimates just fall back to growth.
func (t *Timeline) Reserve(nspans int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if nspans > cap(t.spans) {
		spans := make([]Span, len(t.spans), nspans)
		copy(spans, t.spans)
		t.spans = spans
	}
}

// Assign maps engines onto a worker slot for attribution and track layout.
// Unassigned engines are their own worker (the in-process shape).
func (t *Timeline) Assign(engines []int, worker int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range engines {
		t.assign[e] = worker
	}
}

func (t *Timeline) workerOf(engine int) int {
	if len(t.assign) == 0 { // in-process shape: skip the hash on the hot path
		return engine
	}
	if w, ok := t.assign[engine]; ok {
		return w
	}
	return engine
}

// AddWall merges worker-measured wall-clock spans. Compute spans are held
// and folded into the matching engine's span at the next CommitWindow; all
// other kinds append to the timeline directly (their virtual anchor is the
// window the worker measured them in).
func (t *Timeline) AddWall(spans []Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		if s.Kind == SpanCompute {
			t.pendWall[s.Engine] = s.Wall
			continue
		}
		t.spans = append(t.spans, s)
	}
}

// CommitWindow appends one window's deterministic compute spans (Engine,
// Start, End and modeled Busy filled by the caller; Worker and Window are
// stamped here), folds in any pending wall measurements, derives the
// barrier-wait spans, and updates the straggler attribution. Spans must be
// in ascending engine order — the canonical order.
func (t *Timeline) CommitWindow(start, end float64, spans []Span) WindowStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := t.windows
	t.windows++
	stamp := t.windows // idx+1: never the zero value of a fresh mark slot

	// Per-worker busy is the max over its engines: engines on one worker
	// step concurrently, and the barrier is gated by the slowest. The batch
	// is appended in one grow, then stamped in place.
	touched := t.touched[:0]
	base := len(t.spans)
	t.spans = append(t.spans, spans...)
	for i := base; i < len(t.spans); i++ {
		s := &t.spans[i]
		s.Window = idx
		w := t.workerOf(s.Engine)
		s.Worker = w
		if len(t.pendWall) > 0 {
			if wall, ok := t.pendWall[s.Engine]; ok {
				s.Wall = wall
				delete(t.pendWall, s.Engine)
			}
		}
		if w >= len(t.busy) {
			n := w + 1 - len(t.busy)
			t.busy = append(t.busy, make([]float64, n)...)
			t.mark = append(t.mark, make([]int64, n)...)
			t.gated = append(t.gated, make([]int64, n)...)
			t.crit = append(t.crit, make([]float64, n)...)
		}
		if t.mark[w] != stamp {
			t.mark[w] = stamp
			t.busy[w] = s.Busy
			touched = append(touched, w)
		} else if s.Busy > t.busy[w] {
			t.busy[w] = s.Busy
		}
	}
	t.touched = touched
	if len(t.pendWall) > 0 {
		// Any pending wall measurement without a matching span belongs to an
		// engine idle this window; drop it rather than mis-attributing later.
		for e := range t.pendWall {
			delete(t.pendWall, e)
		}
	}

	st := WindowStat{Window: idx, Worker: -1}
	if len(touched) > 0 {
		if len(touched) > 1 {
			sort.Ints(touched) // near-sorted already: spans arrive engine-ascending
		}
		critBusy, runnerUp := 0.0, 0.0
		for _, w := range touched {
			b := t.busy[w]
			if st.Worker < 0 || b > critBusy {
				if st.Worker >= 0 && critBusy > runnerUp {
					runnerUp = critBusy
				}
				st.Worker, critBusy = w, b
			} else if b > runnerUp {
				runnerUp = b
			}
		}
		st.Busy = critBusy
		if len(touched) > 1 {
			st.Lag = critBusy - runnerUp
		}
		for _, w := range touched {
			if w == st.Worker {
				continue
			}
			t.spans = append(t.spans, Span{
				Kind: SpanBarrier, Worker: w, Engine: -1, Window: idx,
				Start: start, End: end, Busy: critBusy - t.busy[w],
			})
		}
		t.gated[st.Worker]++
		t.crit[st.Worker] += critBusy
		t.critTotal += critBusy
	}
	t.stats = append(t.stats, st)
	return st
}

// Windows returns the number of committed windows.
func (t *Timeline) Windows() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.windows
}

// Spans returns a copy of the merged timeline.
func (t *Timeline) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Health returns the per-worker straggler attribution, sorted by worker.
func (t *Timeline) Health() []WorkerHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := []WorkerHealth{}
	for w, n := range t.gated {
		if n == 0 {
			continue // never gated a window
		}
		h := WorkerHealth{Worker: w, GatedWindows: n, CriticalPath: t.crit[w]}
		if t.critTotal > 0 {
			h.Share = t.crit[w] / t.critTotal
		}
		out = append(out, h)
	}
	return out
}

// DrainWindowStats returns the window attributions accumulated since the
// last drain — the coordinator's feed for the live health gauges.
func (t *Timeline) DrainWindowStats() []WindowStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.stats
	t.stats = nil
	return out
}

// CanonicalJSON renders the deterministic projection of the timeline: the
// compute spans' virtual-time and modeled fields only, in commit order. The
// worker track, barrier-wait derivation and every wall-clock measurement are
// excluded — they reflect the deployment shape, not the simulation — so the
// bytes are identical across in-process, loopback and TCP executions,
// mirroring dist.ResultJSON.
func (t *Timeline) CanonicalJSON() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b []byte
	for _, s := range t.spans {
		if s.Kind != SpanCompute {
			continue
		}
		b = append(b, `{"window":`...)
		b = strconv.AppendInt(b, s.Window, 10)
		b = append(b, `,"engine":`...)
		b = strconv.AppendInt(b, int64(s.Engine), 10)
		b = append(b, `,"start":`...)
		b = strconv.AppendFloat(b, s.Start, 'g', -1, 64)
		b = append(b, `,"end":`...)
		b = strconv.AppendFloat(b, s.End, 'g', -1, 64)
		b = append(b, `,"busy":`...)
		b = strconv.AppendFloat(b, s.Busy, 'g', -1, 64)
		b = append(b, "}\n"...)
	}
	return b
}

// WriteTraceEvents renders the timeline as Chrome trace_event JSON — load
// the file in Perfetto (ui.perfetto.dev) or chrome://tracing. One process
// per worker, one thread per engine (tid 0 carries worker-level spans). The
// time axis is virtual microseconds; compute and barrier-wait durations are
// modeled busy seconds, wire/checkpoint/migrate durations are measured wall
// seconds, and each event's args carry the window index and wall time.
func (t *Timeline) WriteTraceEvents(w io.Writer) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()

	var b []byte
	b = append(b, `{"displayTimeUnit":"ms","traceEvents":[`...)
	first := true
	emit := func(line []byte) {
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, line...)
	}

	// Metadata: name each worker track and engine thread, sorted for
	// deterministic output.
	type track struct{ worker, engine int }
	seen := map[track]bool{}
	var tracks []track
	for _, s := range spans {
		tr := track{s.Worker, s.Engine}
		if !seen[tr] {
			seen[tr] = true
			tracks = append(tracks, tr)
		}
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].worker != tracks[j].worker {
			return tracks[i].worker < tracks[j].worker
		}
		return tracks[i].engine < tracks[j].engine
	})
	var line []byte
	lastWorker := -1
	for _, tr := range tracks {
		if tr.worker != lastWorker {
			lastWorker = tr.worker
			line = line[:0]
			line = append(line, `{"ph":"M","name":"process_name","pid":`...)
			line = strconv.AppendInt(line, int64(tr.worker), 10)
			line = append(line, `,"args":{"name":"worker `...)
			line = strconv.AppendInt(line, int64(tr.worker), 10)
			line = append(line, `"}}`...)
			emit(line)
		}
		line = line[:0]
		line = append(line, `{"ph":"M","name":"thread_name","pid":`...)
		line = strconv.AppendInt(line, int64(tr.worker), 10)
		line = append(line, `,"tid":`...)
		line = strconv.AppendInt(line, int64(tr.engine+1), 10)
		line = append(line, `,"args":{"name":"`...)
		if tr.engine < 0 {
			line = append(line, `worker`...)
		} else {
			line = append(line, `engine `...)
			line = strconv.AppendInt(line, int64(tr.engine), 10)
		}
		line = append(line, `"}}`...)
		emit(line)
	}

	const usec = 1e6
	for _, s := range spans {
		ts, dur := s.Start*usec, s.Busy*usec
		switch s.Kind {
		case SpanWireSend, SpanWireRecv, SpanCheckpoint, SpanMigrate:
			dur = s.Wall * usec
		}
		line = line[:0]
		line = append(line, `{"ph":"X","cat":"massf","name":"`...)
		line = append(line, s.Kind.String()...)
		line = append(line, `","pid":`...)
		line = strconv.AppendInt(line, int64(s.Worker), 10)
		line = append(line, `,"tid":`...)
		line = strconv.AppendInt(line, int64(s.Engine+1), 10)
		line = append(line, `,"ts":`...)
		line = appendTraceFloat(line, ts)
		line = append(line, `,"dur":`...)
		line = appendTraceFloat(line, dur)
		line = append(line, `,"args":{"window":`...)
		line = strconv.AppendInt(line, s.Window, 10)
		line = append(line, `,"wall_ms":`...)
		line = appendTraceFloat(line, s.Wall*1e3)
		line = append(line, `}}`...)
		emit(line)
	}
	b = append(b, `]}`...)
	_, err := w.Write(b)
	return err
}

// appendTraceFloat formats trace_event numbers: shortest round-trip form,
// never exponent notation with a bare leading dot (JSON-safe as 'g' output
// from AppendFloat already is).
func appendTraceFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}
