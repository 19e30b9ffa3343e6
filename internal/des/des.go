// Package des implements the conservative parallel discrete-event simulation
// kernel underneath the emulator — the role MaSSF's SSF kernel plays in the
// paper.
//
// The kernel runs one logical process (LP) per simulation-engine node.
// Execution is window-synchronized: all LPs process their local events up to
// a common horizon T+L, where the lookahead L is the minimum latency of any
// link crossing the partition, then exchange the events destined for other
// LPs at a barrier. Because every cross-LP event is delayed by at least L,
// events received at the barrier are always timestamped at or beyond the next
// window, so no LP ever sees an event in its past (the classic synchronous
// conservative protocol).
//
// This is exactly why the paper's first partitioning objective — maximize the
// link latency cut by the partition — matters: a larger lookahead means wider
// windows, fewer barriers, and more concurrency (§2.2.3).
//
// In process, one goroutine executes every LP's window in LP order: the paper
// topologies run about two events per window, too few to repay a goroutine
// handoff per LP. The engines' parallelism is modelled — deterministic
// per-window statistics feed the engine cost model that reproduces the
// paper's emulation-time metrics — and real concurrency comes from running
// LP subsets on separate worker processes through Stepper (internal/dist).
//
// Hot-path layout. Pending events live in structure-of-arrays heaps (parallel
// time/seq/payload slices), so heap sifts compare raw float64/int64 arrays
// without chasing payload pointers. Cross-LP sends accumulate in pooled
// per-destination batches — the in-process mirror of the dist protocol's
// per-window framing — and are re-sequenced at the barrier with a reused
// merge scratch, so the steady-state barrier allocates nothing. See
// DESIGN.md §14 for the layout and the determinism argument.
package des

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Event is a timestamped message destined for an LP.
type Event struct {
	// Time is the virtual time at which the event fires (seconds).
	Time float64
	// LP is the destination logical process.
	LP int
	// Data is the opaque payload interpreted by the Handler.
	Data any

	// seq orders simultaneous events deterministically. Locally scheduled
	// events get the destination LP's next sequence number; events arriving
	// over the barrier are re-sequenced in a deterministic merge order.
	seq int64
}

// Handler processes one event on behalf of LP lp at virtual time t. It may
// schedule further events — local or remote — through the Scheduler, and
// should call Scheduler.Charge to account the kernel-event load the event
// represents (the emulator charges one kernel event per packet, §4.1.1).
type Handler func(lp int, t float64, data any, s *Scheduler)

// WindowObserver is called once per executed window, after the barrier.
// charges[lp] is the kernel-event load LP lp accrued during [start,end);
// remote[lp] is the number of events it sent to other LPs.
//
// Both slices are recycled buffers: the kernel overwrites them in place at
// the next barrier. An observer must fully consume (or copy) them before
// returning and must not retain a reference: a retained slice shows later
// windows' data. TestObserverBuffersAreRecycled pins this contract.
type WindowObserver func(start, end float64, charges, remote []int64)

// Config configures a Kernel.
type Config struct {
	// NumLPs is the number of logical processes (simulation-engine nodes).
	NumLPs int
	// Lookahead is the synchronization window width L in virtual seconds.
	// It must be positive; cross-LP events must be scheduled at least L in
	// the future.
	Lookahead float64
	// Handler processes events. Required.
	Handler Handler
	// Observer, if non-nil, receives per-window load statistics.
	Observer WindowObserver
	// Recorder, if non-nil, receives the kernel's observability stream: a
	// RunMeta per Run (segment), a Window record per executed window with
	// per-LP counters (handler invocations, charges, remote sends, queue
	// occupancy; Wait is always zero in process), delivered after the
	// barrier. A nil Recorder costs nothing: the instrumentation sites are
	// guarded and allocate only when recording.
	Recorder obs.Recorder
	// OnBarrier, if non-nil, is called after each window's barrier — after
	// handler errors are checked, outboxes merged, and the Observer has run.
	// No handler is executing, so the hook may safely take a Checkpoint.
	// Returning a non-nil error stops the run: Run returns that error
	// together with the statistics accumulated so far (including the window
	// just completed), which is how an engine crash (LPFailure) surfaces
	// without corrupting state.
	OnBarrier func(windowStart, windowEnd float64) error
	// EndTime, if positive, stops the run once the next event would fire at
	// or beyond this virtual time.
	EndTime float64
}

// Stats summarizes a completed run.
type Stats struct {
	// VirtualEnd is the virtual time of the last executed window's end.
	VirtualEnd float64
	// Windows is the number of executed (non-empty) windows, i.e. barriers.
	Windows int64
	// SkippedTime is the idle virtual time jumped over between busy windows.
	SkippedTime float64
	// Events is the number of handler invocations per LP.
	Events []int64
	// Charges is the accumulated kernel-event load per LP (via Charge).
	Charges []int64
	// RemoteSends is the number of cross-LP events sent per LP.
	RemoteSends []int64
	// WallTime is the real time the run took.
	WallTime time.Duration
}

// TotalCharges sums the per-LP kernel-event loads.
func (s *Stats) TotalCharges() int64 {
	var t int64
	for _, c := range s.Charges {
		t += c
	}
	return t
}

// batch collects one window's sends from one source LP to one destination LP
// in structure-of-arrays form — the in-process counterpart of the dist
// protocol's per-window event frames. Batches are sync.Pool-recycled: a
// scheduler takes one on the first send to a destination, the barrier (or
// Stepper.Step) consumes and releases it, and the backing arrays are reused
// window after window, so the steady-state send path allocates nothing.
type batch struct {
	// Dst is the destination LP, Src the sending LP.
	Dst, Src int
	// Times[i] is the i-th event's firing time; SrcIdx[i] its send order
	// within the source LP's window (the barrier merge tiebreak); Datas[i]
	// its payload.
	Times  []float64
	SrcIdx []int32
	Datas  []any
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

func getBatch(src, dst int) *batch {
	b := batchPool.Get().(*batch)
	b.Src, b.Dst = src, dst
	return b
}

// putBatch clears payload references (the queues own them now) and recycles
// the batch's backing arrays.
func putBatch(b *batch) {
	for i := range b.Datas {
		b.Datas[i] = nil
	}
	b.Times = b.Times[:0]
	b.SrcIdx = b.SrcIdx[:0]
	b.Datas = b.Datas[:0]
	batchPool.Put(b)
}

// Scheduler is the per-LP interface handlers use to schedule events and
// account load. It is only valid inside a Handler invocation.
type Scheduler struct {
	k         *Kernel
	lp        int
	now       float64
	windowEnd float64
	charges   int64
	remote    int64
	// batches holds this window's outgoing per-destination batches in
	// first-touch order; batchAt indexes them by destination LP. Both are
	// drained at the barrier.
	batches []*batch
	batchAt []*batch
	err     error
}

// Now returns the virtual time of the event being handled.
func (s *Scheduler) Now() float64 { return s.now }

// LP returns the logical process the current event executes on.
func (s *Scheduler) LP() int { return s.lp }

// Charge accounts n kernel events (packets) to the current LP in the current
// window.
func (s *Scheduler) Charge(n int64) { s.charges += n }

// Schedule enqueues an event for LP lp at virtual time t. Local events
// (lp == current) may be scheduled at any t >= Now(). Remote events must obey
// the lookahead: t >= current window end. Violations poison the run with an
// error rather than corrupting causality.
func (s *Scheduler) Schedule(lp int, t float64, data any) {
	if t < s.now {
		s.fail(fmt.Errorf("des: LP %d scheduled event in the past: t=%g < now=%g", s.lp, t, s.now))
		return
	}
	if lp == s.lp {
		s.k.pushLocal(lp, t, data)
		return
	}
	if lp < 0 || lp >= s.k.cfg.NumLPs {
		s.fail(fmt.Errorf("des: LP %d scheduled event for invalid LP %d", s.lp, lp))
		return
	}
	if t < s.windowEnd-1e-12 {
		s.fail(fmt.Errorf("des: LP %d violated lookahead: remote event at t=%g before window end %g", s.lp, t, s.windowEnd))
		return
	}
	b := s.batchAt[lp]
	if b == nil {
		b = getBatch(s.lp, lp)
		s.batchAt[lp] = b
		s.batches = append(s.batches, b)
	}
	b.Times = append(b.Times, t)
	b.SrcIdx = append(b.SrcIdx, int32(s.remote))
	b.Datas = append(b.Datas, data)
	s.remote++
}

func (s *Scheduler) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Fail poisons the run with err (first error wins): the current window stops
// processing further events on this LP and the kernel surfaces the error at
// the barrier. Handlers use it for unrecoverable payload or protocol errors —
// the same mechanism lookahead violations use — instead of panicking.
func (s *Scheduler) Fail(err error) { s.fail(err) }

// Kernel is the window-synchronized event engine. Create with New, seed
// initial events with Schedule, then call Run once. After a Restore the
// kernel may be Run again, resuming from the restored checkpoint.
type Kernel struct {
	cfg    Config
	queues []eventHeap
	seqs   []int64

	// base carries statistics across Restore/Run cycles: a resumed Run
	// continues accumulating from the restored checkpoint's counters.
	base *Stats
	// runStats points at the live statistics during Run so Checkpoint can
	// snapshot them at a barrier.
	runStats *Stats
	ran      bool

	// Barrier merge scratch, reused across windows: batches bucketed by
	// destination, the list of destinations with traffic, and the
	// structure-of-arrays sort area. Zero steady-state allocations.
	perDst  [][]*batch
	dstList []int
	merge   mergeScratch

	// Recording scratch, allocated once per Run only when cfg.Recorder is
	// set: per-window per-LP counters reused across windows so the nil-
	// recorder path stays allocation-free and the recording path allocates
	// nothing per event.
	recording bool
	winEvents []int64
	winQueue  []int64
}

// New validates cfg and returns a kernel ready for initial event injection.
func New(cfg Config) (*Kernel, error) {
	if cfg.NumLPs < 1 {
		return nil, fmt.Errorf("des: NumLPs = %d, must be >= 1", cfg.NumLPs)
	}
	if cfg.Lookahead <= 0 {
		return nil, fmt.Errorf("des: Lookahead = %g, must be > 0", cfg.Lookahead)
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("des: Handler is required")
	}
	return &Kernel{
		cfg:    cfg,
		queues: make([]eventHeap, cfg.NumLPs),
		seqs:   make([]int64, cfg.NumLPs),
	}, nil
}

// Schedule inserts an initial event before Run (not safe during Run; use the
// Scheduler inside handlers there).
func (k *Kernel) Schedule(lp int, t float64, data any) error {
	if lp < 0 || lp >= k.cfg.NumLPs {
		return fmt.Errorf("des: initial event for invalid LP %d", lp)
	}
	if t < 0 {
		return fmt.Errorf("des: initial event at negative time %g", t)
	}
	k.pushLocal(lp, t, data)
	return nil
}

func (k *Kernel) pushLocal(lp int, t float64, data any) {
	seq := k.seqs[lp]
	k.seqs[lp]++
	k.queues[lp].push(t, seq, data)
}

// newScheduler builds an LP's scheduler with its per-destination batch index
// preallocated (one slot per possible destination).
func (k *Kernel) newScheduler(lp int) *Scheduler {
	return &Scheduler{k: k, lp: lp, batchAt: make([]*batch, k.cfg.NumLPs)}
}

// Run executes the simulation to completion (or EndTime) and returns
// statistics. It may be called once per New or Restore. When resuming from a
// checkpoint, the returned statistics continue from the checkpoint's counters
// (WallTime likewise accumulates across segments).
func (k *Kernel) Run() (*Stats, error) {
	if k.ran {
		return nil, fmt.Errorf("des: Run called again without Restore")
	}
	k.ran = true
	n := k.cfg.NumLPs
	L := k.cfg.Lookahead
	stats := &Stats{
		Events:      make([]int64, n),
		Charges:     make([]int64, n),
		RemoteSends: make([]int64, n),
	}
	baseWall := time.Duration(0)
	if k.base != nil {
		copy(stats.Events, k.base.Events)
		copy(stats.Charges, k.base.Charges)
		copy(stats.RemoteSends, k.base.RemoteSends)
		stats.Windows = k.base.Windows
		stats.SkippedTime = k.base.SkippedTime
		stats.VirtualEnd = k.base.VirtualEnd
		baseWall = k.base.WallTime
	}
	k.runStats = stats
	defer func() { k.runStats = nil }()
	start := time.Now()

	scheds := make([]*Scheduler, n)
	for lp := range scheds {
		scheds[lp] = k.newScheduler(lp)
	}
	winCharges := make([]int64, n)
	winRemote := make([]int64, n)

	rec := k.cfg.Recorder
	k.recording = rec != nil
	if k.recording {
		k.winEvents = make([]int64, n)
		k.winQueue = make([]int64, n)
		rec.RecordRun(obs.RunMeta{LPs: n, Lookahead: L, Resumed: k.base != nil})
	}

	T := 0.0
	if t, ok := k.minNextTime(); ok {
		T = windowFloor(t, L)
	}

	for {
		next, ok := k.minNextTime()
		if !ok {
			break
		}
		if k.cfg.EndTime > 0 && next >= k.cfg.EndTime {
			break
		}
		// Jump over idle stretches, keeping the window grid aligned.
		if next >= T+L {
			nt := windowFloor(next, L)
			stats.SkippedTime += nt - T
			T = nt
		}
		windowEnd := T + L

		for lp := 0; lp < n; lp++ {
			k.runWindow(lp, scheds[lp], windowEnd, stats)
		}

		// Barrier: check errors, merge outboxes deterministically, observe.
		for lp := 0; lp < n; lp++ {
			if err := scheds[lp].err; err != nil {
				return nil, err
			}
		}
		k.mergeOutboxes(scheds)
		if k.cfg.Observer != nil || k.recording {
			for lp := 0; lp < n; lp++ {
				winCharges[lp] = scheds[lp].charges
				winRemote[lp] = scheds[lp].remote
				scheds[lp].charges = 0
				scheds[lp].remote = 0
			}
			if k.cfg.Observer != nil {
				k.cfg.Observer(T, windowEnd, winCharges, winRemote)
			}
			if k.recording {
				for lp := 0; lp < n; lp++ {
					k.winQueue[lp] = int64(k.queues[lp].Len())
				}
				rec.RecordWindow(obs.Window{
					Index: stats.Windows, Start: T, End: windowEnd,
					Events: k.winEvents, Charges: winCharges, Remote: winRemote,
					Queue: k.winQueue,
				})
			}
		} else {
			for lp := 0; lp < n; lp++ {
				scheds[lp].charges = 0
				scheds[lp].remote = 0
			}
		}
		stats.Windows++
		stats.VirtualEnd = windowEnd
		if k.cfg.OnBarrier != nil {
			if err := k.cfg.OnBarrier(T, windowEnd); err != nil {
				stats.WallTime = baseWall + time.Since(start)
				return stats, err
			}
		}
		T = windowEnd
	}

	stats.WallTime = baseWall + time.Since(start)
	return stats, nil
}

// runWindow drains one LP's queue up to windowEnd. Remote events go to the
// LP's per-destination batches until the barrier merges them.
func (k *Kernel) runWindow(lp int, s *Scheduler, windowEnd float64, stats *Stats) {
	s.windowEnd = windowEnd
	q := &k.queues[lp]
	events := int64(0)
	preCharges := s.charges
	for q.Len() > 0 && q.times[0] < windowEnd {
		if k.cfg.EndTime > 0 && q.times[0] >= k.cfg.EndTime {
			break
		}
		t, data := q.pop()
		s.now = t
		events++
		k.cfg.Handler(lp, t, data, s)
		if s.err != nil {
			break
		}
	}
	stats.Events[lp] += events
	stats.Charges[lp] += s.charges - preCharges
	stats.RemoteSends[lp] += s.remote
	if k.recording {
		k.winEvents[lp] = events
	}
}

// mergeOutboxes distributes the window's cross-LP batches into destination
// queues. Sequence numbers are per destination LP, so the historical global
// (time, source LP, send order) insertion order can be applied one
// destination at a time: sorting each destination's incoming events by that
// same key is exactly the restriction of the global order to that
// destination, and destinations' queues are independent, so the per-LP seq
// assignment — and therefore every queue — is byte-identical to one global
// SortSent followed by Inject, the order a Stepper coordinator applies (tests
// check this).
func (k *Kernel) mergeOutboxes(scheds []*Scheduler) {
	if k.perDst == nil {
		k.perDst = make([][]*batch, k.cfg.NumLPs)
	}
	// Bucket batches by destination. Iterating sources in ascending LP order
	// keeps each bucket's batches pre-sorted by the source tiebreak.
	for _, s := range scheds {
		for _, b := range s.batches {
			if len(k.perDst[b.Dst]) == 0 {
				k.dstList = append(k.dstList, b.Dst)
			}
			k.perDst[b.Dst] = append(k.perDst[b.Dst], b)
			s.batchAt[b.Dst] = nil
		}
		s.batches = s.batches[:0]
	}
	if len(k.dstList) == 0 {
		return
	}
	sort.Ints(k.dstList)
	m := &k.merge
	for _, dst := range k.dstList {
		bs := k.perDst[dst]
		if len(bs) == 1 && len(bs[0].Times) == 1 {
			// Single incoming event: no ordering decision to make.
			k.pushLocal(dst, bs[0].Times[0], bs[0].Datas[0])
		} else {
			m.reset()
			for _, b := range bs {
				m.appendBatch(b)
			}
			if !m.sorted() {
				sort.Sort(m)
			}
			for i := range m.times {
				k.pushLocal(dst, m.times[i], m.datas[i])
			}
		}
		for _, b := range bs {
			putBatch(b)
		}
		k.perDst[dst] = k.perDst[dst][:0]
	}
	k.dstList = k.dstList[:0]
	m.clearRefs()
}

// mergeScratch is the reusable structure-of-arrays sort area for one
// destination's barrier merge, ordered by (time, source LP, send order).
type mergeScratch struct {
	times []float64
	srcs  []int32
	idxs  []int32
	datas []any
}

func (m *mergeScratch) Len() int { return len(m.times) }

func (m *mergeScratch) Less(i, j int) bool {
	if m.times[i] != m.times[j] {
		return m.times[i] < m.times[j]
	}
	if m.srcs[i] != m.srcs[j] {
		return m.srcs[i] < m.srcs[j]
	}
	return m.idxs[i] < m.idxs[j]
}

func (m *mergeScratch) Swap(i, j int) {
	m.times[i], m.times[j] = m.times[j], m.times[i]
	m.srcs[i], m.srcs[j] = m.srcs[j], m.srcs[i]
	m.idxs[i], m.idxs[j] = m.idxs[j], m.idxs[i]
	m.datas[i], m.datas[j] = m.datas[j], m.datas[i]
}

func (m *mergeScratch) reset() {
	m.times = m.times[:0]
	m.srcs = m.srcs[:0]
	m.idxs = m.idxs[:0]
	m.datas = m.datas[:0]
}

func (m *mergeScratch) appendBatch(b *batch) {
	src := int32(b.Src)
	for i := range b.Times {
		m.times = append(m.times, b.Times[i])
		m.srcs = append(m.srcs, src)
		m.idxs = append(m.idxs, b.SrcIdx[i])
		m.datas = append(m.datas, b.Datas[i])
	}
}

// sorted reports whether the scratch is already in merge order — the common
// case when one source feeds the destination with non-decreasing timestamps,
// letting the barrier skip the sort entirely.
func (m *mergeScratch) sorted() bool {
	for i := 1; i < len(m.times); i++ {
		if m.Less(i, i-1) {
			return false
		}
	}
	return true
}

// clearRefs drops payload references after a barrier (the destination queues
// own them now) without shrinking the backing arrays.
func (m *mergeScratch) clearRefs() {
	d := m.datas[:cap(m.datas)]
	for i := range d {
		d[i] = nil
	}
}

// minNextTime returns the earliest pending event time across all LPs.
func (k *Kernel) minNextTime() (float64, bool) {
	best := math.Inf(1)
	found := false
	for lp := range k.queues {
		if k.queues[lp].Len() > 0 {
			if t := k.queues[lp].times[0]; t < best {
				best = t
				found = true
			}
		}
	}
	return best, found
}

// windowFloor aligns t down to the window grid of width L.
func windowFloor(t, L float64) float64 {
	if t <= 0 {
		return 0
	}
	return math.Floor(t/L) * L
}

// eventHeap is a binary min-heap ordered by (time, seq) in structure-of-
// arrays layout: parallel time/seq/payload slices instead of a slice of
// Event structs. Sift comparisons touch only the flat float64/int64 arrays —
// no payload pointers are loaded until pop returns one — and the hand-rolled
// push/pop avoid container/heap's any-typed interface, which would box every
// event on both push and pop.
type eventHeap struct {
	times []float64
	seqs  []int64
	datas []any
}

func (h *eventHeap) Len() int { return len(h.times) }

func (h *eventHeap) less(i, j int) bool {
	if h.times[i] != h.times[j] {
		return h.times[i] < h.times[j]
	}
	return h.seqs[i] < h.seqs[j]
}

func (h *eventHeap) swap(i, j int) {
	h.times[i], h.times[j] = h.times[j], h.times[i]
	h.seqs[i], h.seqs[j] = h.seqs[j], h.seqs[i]
	h.datas[i], h.datas[j] = h.datas[j], h.datas[i]
}

func (h *eventHeap) push(t float64, seq int64, data any) {
	h.times = append(h.times, t)
	h.seqs = append(h.seqs, seq)
	h.datas = append(h.datas, data)
	i := h.Len() - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *eventHeap) pop() (float64, any) {
	t, data := h.times[0], h.datas[0]
	last := h.Len() - 1
	h.swap(0, last)
	h.datas[last] = nil // release the payload reference
	h.times, h.seqs, h.datas = h.times[:last], h.seqs[:last], h.datas[:last]
	i := 0
	for {
		left := 2*i + 1
		if left >= last {
			break
		}
		child := left
		if right := left + 1; right < last && h.less(right, left) {
			child = right
		}
		if !h.less(child, i) {
			break
		}
		h.swap(child, i)
		i = child
	}
	return t, data
}

// export copies the heap's contents out as Events for LP lp (heap order, not
// time order — checkpointing sorts afterwards).
func (h *eventHeap) export(lp int) []Event {
	evs := make([]Event, h.Len())
	for i := range evs {
		evs[i] = Event{Time: h.times[i], LP: lp, Data: h.datas[i], seq: h.seqs[i]}
	}
	return evs
}
