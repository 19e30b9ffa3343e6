package des

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Externally driven window execution — the kernel face of the distributed
// runtime. A Stepper owns a subset of a kernel's LPs (the engines assigned to
// one worker process) and executes them window by window under an outside
// coordinator: the coordinator collects NextEventTime votes from every
// worker, picks the global window, calls Step on each, merges the outboxes in
// the same deterministic (time, source LP, send order) order Run uses, and
// hands each worker back its share through Inject. Because sequence numbers
// are per destination LP and every phase (initial seeding, in-window local
// pushes, barrier merge) replays in the same order as the in-process Run
// loop, a stepped execution is event-for-event identical to Run.

// Sent is a cross-LP event captured at a Stepper barrier, tagged with the
// merge key Run's barrier uses: sending LP and position in that LP's outbox.
type Sent struct {
	// Time is the event's virtual firing time.
	Time float64
	// Dst is the destination LP.
	Dst int
	// Data is the opaque payload.
	Data any
	// Src is the sending LP; SrcIdx its send order within the window.
	Src    int
	SrcIdx int
}

// StepResult reports one executed window. The slices are indexed by LP over
// the full kernel (non-local slots stay zero) and are reused across Step
// calls — copy them if retained.
type StepResult struct {
	// Events, Charges and Remote are this window's per-LP handler
	// invocations, kernel-event charges, and cross-LP sends.
	Events  []int64
	Charges []int64
	Remote  []int64
	// Queue is the post-window (pre-merge) pending-event count per LP.
	Queue []int64
	// Outbox holds the window's cross-LP events flattened from the kernel's
	// per-destination batches: grouped by (source LP, destination) in batch
	// first-touch order, unsorted. The coordinator merges outboxes from all
	// Steppers globally and must SortSent (or the wire equivalent) before
	// injecting.
	Outbox []Sent
	// Busy is the measured wall-clock seconds each local LP spent executing
	// the window. Nil unless EnableTiming was called — the tracing hot path
	// stays allocation- and syscall-free when tracing is off.
	Busy []float64
}

// Stepper drives a subset of a kernel's LPs one window at a time. Create
// with Kernel.Stepper, seed initial events through Kernel.Schedule first.
type Stepper struct {
	k       *Kernel
	local   []int
	isLocal []bool
	scheds  []*Scheduler // indexed by LP; nil for non-local LPs
	stats   *Stats
	res     StepResult
	// pre is per-Step scratch reused across windows (pre-window event
	// counts).
	pre    []int64
	failed error
	timing bool
}

// EnableTiming turns on per-LP wall-clock measurement of window execution:
// after each Step, StepResult.Busy[lp] holds the seconds LP lp spent in
// runWindow. Off by default; the disabled path takes no clock readings and
// performs no extra allocations.
func (st *Stepper) EnableTiming() {
	if !st.timing {
		st.timing = true
		st.res.Busy = make([]float64, st.k.cfg.NumLPs)
	}
}

// Stepper claims the given LPs of the kernel for external window-by-window
// driving. The kernel must not have Run called on it; local must be a
// non-empty set of distinct valid LPs. Observer, Recorder and OnBarrier are
// ignored in stepped mode — the coordinator owns the barrier.
func (k *Kernel) Stepper(local []int) (*Stepper, error) {
	if k.ran {
		return nil, fmt.Errorf("des: Stepper on a kernel that already ran")
	}
	if len(local) == 0 {
		return nil, fmt.Errorf("des: Stepper needs at least one local LP")
	}
	n := k.cfg.NumLPs
	// A restored kernel (Restore installed a checkpoint base) resumes its
	// cumulative statistics, exactly as Run does — a reseated distributed
	// worker must report run totals, not post-migration deltas.
	stats := &Stats{
		Events:      make([]int64, n),
		Charges:     make([]int64, n),
		RemoteSends: make([]int64, n),
	}
	if k.base != nil {
		copy(stats.Events, k.base.Events)
		copy(stats.Charges, k.base.Charges)
		copy(stats.RemoteSends, k.base.RemoteSends)
		stats.Windows = k.base.Windows
		stats.SkippedTime = k.base.SkippedTime
		stats.VirtualEnd = k.base.VirtualEnd
	}
	st := &Stepper{
		k:       k,
		local:   append([]int(nil), local...),
		isLocal: make([]bool, n),
		scheds:  make([]*Scheduler, n),
		stats:   stats,
		res: StepResult{
			Events:  make([]int64, n),
			Charges: make([]int64, n),
			Remote:  make([]int64, n),
			Queue:   make([]int64, n),
		},
	}
	sort.Ints(st.local)
	for _, lp := range st.local {
		if lp < 0 || lp >= n {
			return nil, fmt.Errorf("des: Stepper local LP %d out of range [0,%d)", lp, n)
		}
		if st.isLocal[lp] {
			return nil, fmt.Errorf("des: Stepper local LP %d listed twice", lp)
		}
		st.isLocal[lp] = true
		st.scheds[lp] = k.newScheduler(lp)
	}
	st.pre = make([]int64, 0, len(st.local))
	k.ran = true
	k.runStats = st.stats // lets Kernel.Checkpoint snapshot mid-stepping
	return st, nil
}

// NextEventTime returns the earliest pending event time across the local
// LPs — the Stepper's barrier vote. ok is false when all local queues are
// empty.
func (st *Stepper) NextEventTime() (float64, bool) {
	best := math.Inf(1)
	found := false
	for _, lp := range st.local {
		if q := &st.k.queues[lp]; q.Len() > 0 && q.times[0] < best {
			best = q.times[0]
			found = true
		}
	}
	return best, found
}

// Step executes one window [T, end) on every local LP, in LP order, and
// returns the window's per-LP counters and outbox. A handler error poisons
// the Stepper: Step returns it now and on every later call.
func (st *Stepper) Step(T, end float64) (*StepResult, error) {
	if st.failed != nil {
		return nil, st.failed
	}
	k := st.k
	st.pre = st.pre[:0]
	for _, lp := range st.local {
		st.pre = append(st.pre, st.stats.Events[lp])
	}
	for _, lp := range st.local {
		if st.timing {
			t0 := time.Now()
			k.runWindow(lp, st.scheds[lp], end, st.stats)
			st.res.Busy[lp] = time.Since(t0).Seconds()
		} else {
			k.runWindow(lp, st.scheds[lp], end, st.stats)
		}
	}
	for _, lp := range st.local {
		if err := st.scheds[lp].err; err != nil {
			st.failed = err
			return nil, err
		}
	}
	res := &st.res
	res.Outbox = res.Outbox[:0]
	for i, lp := range st.local {
		s := st.scheds[lp]
		res.Events[lp] = st.stats.Events[lp] - st.pre[i]
		res.Charges[lp] = s.charges
		res.Remote[lp] = s.remote
		res.Queue[lp] = int64(k.queues[lp].Len())
		s.charges = 0
		s.remote = 0
		// Flatten the window's per-destination batches. The raw order is
		// batch first-touch, not send order — consumers sort globally.
		for _, b := range s.batches {
			for j := range b.Times {
				res.Outbox = append(res.Outbox, Sent{
					Time: b.Times[j], Dst: b.Dst, Data: b.Datas[j],
					Src: lp, SrcIdx: int(b.SrcIdx[j]),
				})
			}
			s.batchAt[b.Dst] = nil
			putBatch(b)
		}
		s.batches = s.batches[:0]
	}
	st.stats.Windows++
	st.stats.VirtualEnd = end
	return res, nil
}

// Inject pushes barrier-merged events into local queues. The coordinator
// must pass them in the global merge order — (time, Src, SrcIdx) ascending —
// so sequence numbers are assigned exactly as Run's mergeOutboxes would.
func (st *Stepper) Inject(evs []Sent) error {
	for _, sv := range evs {
		if sv.Dst < 0 || sv.Dst >= st.k.cfg.NumLPs || !st.isLocal[sv.Dst] {
			return fmt.Errorf("des: injected event at t=%g for non-local LP %d", sv.Time, sv.Dst)
		}
		st.k.pushLocal(sv.Dst, sv.Time, sv.Data)
	}
	return nil
}

// Stats returns the Stepper's cumulative statistics (live; not a copy).
// VirtualEnd and Windows reflect the Steps executed locally; per-LP slices
// cover only local LPs.
func (st *Stepper) Stats() *Stats { return st.stats }

// SortSent orders barrier events in the deterministic global merge order the
// in-process barrier uses: time, then sending LP, then send order.
func SortSent(evs []Sent) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.SrcIdx < b.SrcIdx
	})
}

// WindowFloor aligns t down onto the window grid of width L — exported so a
// coordinator can replicate Run's idle-skip logic bit-for-bit.
func WindowFloor(t, L float64) float64 { return windowFloor(t, L) }
