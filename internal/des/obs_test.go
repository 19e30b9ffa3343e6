package des

import (
	"testing"

	"repro/internal/obs"
)

// chainKernel builds a kernel where each LP processes a chain of events, one
// per tick, each event scheduling the next locally and charging one kernel
// event; every stride-th event also pings the neighbor LP.
func chainKernel(t testing.TB, numLPs int, events int, stride int, rec obs.Recorder) *Kernel {
	t.Helper()
	type tick struct{ n int }
	k, err := New(Config{
		NumLPs:    numLPs,
		Lookahead: 1,
		Recorder:  rec,
		Handler: func(lp int, now float64, data any, s *Scheduler) {
			tk := data.(*tick)
			s.Charge(1)
			if tk.n <= 0 {
				return
			}
			s.Schedule(lp, now+1, &tick{n: tk.n - 1})
			if stride > 0 && tk.n%stride == 0 && numLPs > 1 {
				s.Schedule((lp+1)%numLPs, now+1, &tick{n: 0})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for lp := 0; lp < numLPs; lp++ {
		if err := k.Schedule(lp, 0, &tick{n: events}); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

// TestRecorderWindowCounters checks the per-window stream against the
// kernel's own cumulative statistics.
func TestRecorderWindowCounters(t *testing.T) {
	stats := obs.NewRunStats()
	k := chainKernel(t, 3, 50, 10, stats)
	st, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 1 {
		t.Errorf("segments = %d, want 1", stats.Segments)
	}
	if stats.Windows != st.Windows {
		t.Errorf("recorded %d windows, kernel says %d", stats.Windows, st.Windows)
	}
	for lp := 0; lp < 3; lp++ {
		if stats.Events[lp] != st.Events[lp] {
			t.Errorf("LP %d recorded events %d, kernel %d", lp, stats.Events[lp], st.Events[lp])
		}
		if stats.Charges[lp] != st.Charges[lp] {
			t.Errorf("LP %d recorded charges %d, kernel %d", lp, stats.Charges[lp], st.Charges[lp])
		}
		if stats.Remote[lp] != st.RemoteSends[lp] {
			t.Errorf("LP %d recorded remote %d, kernel %d", lp, stats.Remote[lp], st.RemoteSends[lp])
		}
		if stats.MaxQueue[lp] < 1 {
			t.Errorf("LP %d max queue = %d, want >= 1", lp, stats.MaxQueue[lp])
		}
	}
}

// TestRecorderObserverCoexist verifies the Observer still sees per-window
// charges when a Recorder is also attached (the reset happens exactly once).
func TestRecorderObserverCoexist(t *testing.T) {
	stats := obs.NewRunStats()
	var observed int64
	type tick struct{ n int }
	k, err := New(Config{
		NumLPs: 2, Lookahead: 1,
		Recorder: stats,
		Observer: func(start, end float64, charges, remote []int64) {
			for _, c := range charges {
				observed += c
			}
		},
		Handler: func(lp int, now float64, data any, s *Scheduler) {
			tk := data.(*tick)
			s.Charge(2)
			if tk.n > 0 {
				s.Schedule(lp, now+1, &tick{n: tk.n - 1})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for lp := 0; lp < 2; lp++ {
		if err = k.Schedule(lp, 0, &tick{n: 9}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := st.TotalCharges()
	if observed != want {
		t.Errorf("observer saw %d charges, kernel accumulated %d", observed, want)
	}
	if got := stats.TotalCharges(); got != want {
		t.Errorf("recorder saw %d charges, kernel accumulated %d", got, want)
	}
}

// TestNilRecorderZeroAllocsPerEvent is the acceptance gate for the no-op
// observability path: with Recorder nil, the kernel must not allocate per
// event. The chain workload keeps every queue at constant depth, so a run's
// allocations are fixed setup costs; per-event allocations would scale the
// total with the event count and trip the bound.
func TestNilRecorderZeroAllocsPerEvent(t *testing.T) {
	const events = 5000
	type tick struct{ n int }
	payloads := make([]*tick, 2) // pre-allocated, reused via pointer payloads
	handler := func(lp int, now float64, data any, s *Scheduler) {
		tk := data.(*tick)
		s.Charge(1)
		if tk.n > 0 {
			tk.n--
			s.Schedule(lp, now+1, tk)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		k, err := New(Config{NumLPs: 2, Lookahead: 1, Handler: handler})
		if err != nil {
			t.Fatal(err)
		}
		for lp := 0; lp < 2; lp++ {
			payloads[lp] = &tick{n: events}
			if err := k.Schedule(lp, 0, payloads[lp]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	// 2 LPs x 5000 events with ~40 fixed setup allocations: anything per-
	// event would add thousands.
	if allocs > 100 {
		t.Errorf("nil-recorder run allocated %.0f times for %d events (> 100: not allocation-free per event)",
			allocs, 2*events)
	}
}

// BenchmarkKernelNopRecorder measures the kernel hot path with observability
// disabled — the baseline the recorder-enabled path is compared against.
func BenchmarkKernelNopRecorder(b *testing.B) {
	benchKernel(b, nil)
}

// BenchmarkKernelRunStats measures the same workload with the aggregating
// collector attached.
func BenchmarkKernelRunStats(b *testing.B) {
	benchKernel(b, obs.NewRunStats())
}

func benchKernel(b *testing.B, rec obs.Recorder) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := chainKernel(b, 4, 2000, 50, rec)
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
