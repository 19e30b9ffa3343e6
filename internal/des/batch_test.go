package des

import (
	"fmt"
	"reflect"
	"testing"
)

// crossTrafficHandler builds a handler that bounces events between LPs with
// heavy timestamp collisions: every event at time t on LP lp re-sends to two
// other LPs at exactly the next window boundary, so each barrier merges
// simultaneous events from multiple sources and the (time, src, srcIdx)
// tiebreak decides every insertion. The per-LP logs capture execution order;
// with tagged set they also name each event's sender, so reordering
// simultaneous events from different sources changes the log.
func crossTrafficHandler(numLPs int, L float64, logs [][]string, tagged bool) Handler {
	return func(lp int, t float64, data any, s *Scheduler) {
		m := data.(crossMsg)
		// Only this LP's owner appends to its log slot.
		if tagged {
			logs[lp] = append(logs[lp], fmt.Sprintf("t=%.3f hop=%d from=%d", t, m.hop, m.from))
		} else {
			logs[lp] = append(logs[lp], fmt.Sprintf("t=%.3f hop=%d", t, m.hop))
		}
		s.Charge(1)
		if m.hop == 0 {
			return
		}
		// Two remote fan-outs at the identical timestamp plus a local echo:
		// the remote pair lands simultaneously with other LPs' sends.
		next := s.windowEnd
		s.Schedule((lp+1)%numLPs, next, crossMsg{m.hop - 1, lp})
		s.Schedule((lp+2)%numLPs, next, crossMsg{m.hop - 1, lp})
		s.Schedule(lp, t+L/4, crossMsg{0, lp})
	}
}

// crossMsg is the collision-heavy scenario's payload: the remaining hop
// count and the sending LP (-1 for seed events).
type crossMsg struct{ hop, from int }

// crossL is the collision-heavy scenario's lookahead.
const crossL = 0.01

// newCrossTraffic builds the collision-heavy scenario's kernel, seeded on
// every LP, logging execution order into logs.
func newCrossTraffic(t *testing.T, numLPs int, logs [][]string, tagged bool) *Kernel {
	t.Helper()
	k, err := New(Config{
		NumLPs:    numLPs,
		Lookahead: crossL,
		Handler:   crossTrafficHandler(numLPs, crossL, logs, tagged),
	})
	if err != nil {
		t.Fatal(err)
	}
	for lp := 0; lp < numLPs; lp++ {
		if err := k.Schedule(lp, 0.001*float64(lp+1), crossMsg{6, -1}); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

// TestBarrierMergeMatchesReference is the determinism oracle for the pooled
// per-destination barrier merge: under heavy timestamp collisions, Run must
// execute event-for-event identically to the reference order — one global
// (time, source LP, send order) SortSent over the window's outbox followed by
// Inject, driven through a Stepper that owns every LP. The tagged logs make
// the source-LP tiebreak observable.
func TestBarrierMergeMatchesReference(t *testing.T) {
	const numLPs = 5
	for _, tagged := range []bool{false, true} {
		refLogs := make([][]string, numLPs)
		refStats := runStepped(t, crossL, [][]int{{0, 1, 2, 3, 4}}, func() *Kernel {
			return newCrossTraffic(t, numLPs, refLogs, tagged)
		})
		logs := make([][]string, numLPs)
		stats, err := newCrossTraffic(t, numLPs, logs, tagged).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(logs, refLogs) {
			t.Errorf("tagged=%v: execution order diverged from the reference merge", tagged)
		}
		if !reflect.DeepEqual(stats.Events, refStats.Events) ||
			!reflect.DeepEqual(stats.Charges, refStats.Charges) ||
			!reflect.DeepEqual(stats.RemoteSends, refStats.RemoteSends) ||
			stats.Windows != refStats.Windows {
			t.Errorf("tagged=%v: stats diverged from the reference merge", tagged)
		}
	}
}

// TestObserverBuffersAreRecycled pins the WindowObserver buffer contract the
// doc comment promises: the charges/remote slices handed to the observer are
// the kernel's recycled per-window buffers — the same backing arrays every
// window — so an observer must consume them before returning and must not
// retain a reference.
func TestObserverBuffersAreRecycled(t *testing.T) {
	const numLPs = 3
	const L = 0.01
	var (
		windows      int
		chargesArr   *int64
		remoteArr    *int64
		firstCharges []int64 // illustrative retained reference (read only at the end)
	)
	h := func(lp int, tm float64, data any, s *Scheduler) {
		s.Charge(int64(lp) + 1)
		if hop := data.(int); hop > 0 {
			s.Schedule((lp+1)%numLPs, s.windowEnd, hop-1)
		}
	}
	k, err := New(Config{
		NumLPs:    numLPs,
		Lookahead: L,
		Handler:   h,
		Observer: func(start, end float64, charges, remote []int64) {
			if windows == 0 {
				chargesArr, remoteArr = &charges[0], &remote[0]
				firstCharges = charges
			} else {
				if &charges[0] != chargesArr || &remote[0] != remoteArr {
					t.Error("observer buffers were reallocated; the recycled-buffer contract changed")
				}
			}
			windows++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for lp := 0; lp < numLPs; lp++ {
		if err := k.Schedule(lp, 0.001, 4); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if windows < 2 {
		t.Fatalf("scenario executed %d windows, need >= 2 to observe recycling", windows)
	}
	// The footgun the contract documents: a retained slice does not hold the
	// first window's values — it aliases the live buffer and now shows the
	// last window's.
	if firstCharges[0] != 1 { // LP 0 charges 1 per event; last window has one event on some LP
		t.Logf("retained slice now shows later-window data (expected): %v", firstCharges)
	}
}

// TestBatchPoolingNoSteadyStateAllocs verifies the pooled-batch barrier and
// SoA heaps reach a zero-allocation steady state: after a warm-up run, a
// second identical run performs no per-event or per-barrier
// allocations beyond the fixed per-run setup.
func TestBatchPoolingNoSteadyStateAllocs(t *testing.T) {
	const numLPs = 4
	const L = 0.01
	// The handler fans out without logging, so every steady-state allocation
	// would come from the kernel itself (boxed payloads are pre-boxed ints).
	h := func(lp int, t float64, data any, s *Scheduler) {
		s.Charge(1)
		if hop := data.(int); hop > 0 {
			next := s.windowEnd
			s.Schedule((lp+1)%numLPs, next, hop-1)
			s.Schedule((lp+2)%numLPs, next, hop-1)
		}
	}
	build := func() *Kernel {
		k, err := New(Config{NumLPs: numLPs, Lookahead: L, Handler: h})
		if err != nil {
			t.Fatal(err)
		}
		for lp := 0; lp < numLPs; lp++ {
			if err := k.Schedule(lp, 0.001*float64(lp+1), 8); err != nil {
				t.Fatal(err)
			}
		}
		return k
	}
	// Warm the pools and measure the fixed per-run cost.
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := build().Run(); err != nil {
			t.Fatal(err)
		}
	})
	// The scenario executes ~1000 events over dozens of windows. The remaining
	// allocations are per-run setup (kernel, queues, schedulers, stats) —
	// independent of event count; a per-event or per-barrier allocation would
	// multiply this figure far past the bound.
	const bound = 250
	if allocs > bound {
		t.Errorf("run allocated %.0f objects, want <= %d (per-event/per-barrier allocation crept back in)", allocs, bound)
	}
}
