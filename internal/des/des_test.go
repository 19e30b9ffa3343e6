package des

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestNewValidation(t *testing.T) {
	h := func(int, float64, any, *Scheduler) {}
	if _, err := New(Config{NumLPs: 0, Lookahead: 1, Handler: h}); err == nil {
		t.Error("NumLPs=0 accepted")
	}
	if _, err := New(Config{NumLPs: 1, Lookahead: 0, Handler: h}); err == nil {
		t.Error("Lookahead=0 accepted")
	}
	if _, err := New(Config{NumLPs: 1, Lookahead: 1}); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := New(Config{NumLPs: 1, Lookahead: 1, Handler: h}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestScheduleValidation(t *testing.T) {
	k, _ := New(Config{NumLPs: 2, Lookahead: 1, Handler: func(int, float64, any, *Scheduler) {}})
	if err := k.Schedule(5, 0, nil); err == nil {
		t.Error("invalid LP accepted")
	}
	if err := k.Schedule(0, -1, nil); err == nil {
		t.Error("negative time accepted")
	}
	if err := k.Schedule(1, 0.5, nil); err != nil {
		t.Errorf("valid initial event rejected: %v", err)
	}
}

// TestEventOrdering verifies events on one LP execute in timestamp order,
// including events scheduled mid-window.
func TestEventOrdering(t *testing.T) {
	var times []float64
	h := func(lp int, tm float64, data any, s *Scheduler) {
		times = append(times, tm)
		if data == "spawn" {
			// Schedule a local event inside the current window.
			s.Schedule(lp, tm+0.1, "child")
		}
	}
	k, _ := New(Config{NumLPs: 1, Lookahead: 10, Handler: h})
	k.Schedule(0, 3.0, nil)
	k.Schedule(0, 1.0, "spawn")
	k.Schedule(0, 2.0, nil)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0, 1.1, 2.0, 3.0}
	if len(times) != len(want) {
		t.Fatalf("executed %v, want %v", times, want)
	}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-12 {
			t.Fatalf("executed %v, want %v", times, want)
		}
	}
}

// TestCausality is the core safety property: no handler ever observes time
// going backwards on its LP, with cross-LP traffic.
func TestCausality(t *testing.T) {
	const numLPs = 4
	const L = 0.010
	lastTime := make([]float64, numLPs)
	var violations int64
	h := func(lp int, tm float64, data any, s *Scheduler) {
		if tm < lastTime[lp]-1e-12 {
			atomic.AddInt64(&violations, 1)
		}
		lastTime[lp] = tm
		s.Charge(1)
		hop := data.(int)
		if hop >= 0 && hop < 200 {
			// Ping-pong to the next LP, respecting lookahead.
			s.Schedule((lp+1)%numLPs, tm+L, hop+1)
			// And a non-spawning local follow-up inside the window.
			s.Schedule(lp, tm+L/7, -1)
		}
	}
	k, _ := New(Config{NumLPs: numLPs, Lookahead: L, Handler: h})
	for lp := 0; lp < numLPs; lp++ {
		k.Schedule(lp, 0.001*float64(lp+1), 0)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("%d causality violations", violations)
	}
	if stats.TotalCharges() == 0 {
		t.Error("no charges accounted")
	}
}

// TestLookaheadViolationDetected: a remote event inside the current window
// must poison the run.
func TestLookaheadViolationDetected(t *testing.T) {
	h := func(lp int, tm float64, data any, s *Scheduler) {
		if lp == 0 {
			s.Schedule(1, tm+1e-9, nil) // far below lookahead 1.0
		}
	}
	k, _ := New(Config{NumLPs: 2, Lookahead: 1, Handler: h})
	k.Schedule(0, 0, nil)
	if _, err := k.Run(); err == nil {
		t.Fatal("lookahead violation not detected")
	}
}

func TestPastEventDetected(t *testing.T) {
	h := func(lp int, tm float64, data any, s *Scheduler) {
		s.Schedule(lp, tm-1, nil)
	}
	k, _ := New(Config{NumLPs: 1, Lookahead: 1, Handler: h})
	k.Schedule(0, 5, nil)
	if _, err := k.Run(); err == nil {
		t.Fatal("past event not detected")
	}
}

func TestInvalidRemoteLPDetected(t *testing.T) {
	h := func(lp int, tm float64, data any, s *Scheduler) {
		s.Schedule(99, tm+10, nil)
	}
	k, _ := New(Config{NumLPs: 2, Lookahead: 1, Handler: h})
	k.Schedule(0, 0, nil)
	if _, err := k.Run(); err == nil {
		t.Fatal("invalid remote LP not detected")
	}
}

// TestWindowSkip: long idle gaps must be jumped, not iterated.
func TestWindowSkip(t *testing.T) {
	h := func(lp int, tm float64, data any, s *Scheduler) { s.Charge(1) }
	k, _ := New(Config{NumLPs: 1, Lookahead: 0.001, Handler: h})
	k.Schedule(0, 0, nil)
	k.Schedule(0, 100.0, nil) // 100k windows away
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows > 3 {
		t.Errorf("executed %d windows, want <= 3 (idle time must be skipped)", stats.Windows)
	}
	if stats.SkippedTime < 99 {
		t.Errorf("SkippedTime = %v, want ~100", stats.SkippedTime)
	}
}

func TestEndTime(t *testing.T) {
	var count int64
	h := func(lp int, tm float64, data any, s *Scheduler) {
		count++
		s.Schedule(lp, tm+1, nil)
	}
	k, _ := New(Config{NumLPs: 1, Lookahead: 0.5, Handler: h, EndTime: 10})
	k.Schedule(0, 0, nil)
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if count < 9 || count > 11 {
		t.Errorf("executed %d events, want ~10", count)
	}
	if stats.VirtualEnd > 10.5+1e-9 {
		t.Errorf("VirtualEnd = %v, want <= ~10.5", stats.VirtualEnd)
	}
}

// TestObserver checks per-window callbacks report loads that sum to totals.
func TestObserver(t *testing.T) {
	var obsWindows int64
	var obsCharges, obsRemote int64
	obs := func(start, end float64, charges, remote []int64) {
		obsWindows++
		if end <= start {
			t.Errorf("window [%v,%v) not positive", start, end)
		}
		for _, c := range charges {
			obsCharges += c
		}
		for _, r := range remote {
			obsRemote += r
		}
	}
	h := func(lp int, tm float64, data any, s *Scheduler) {
		n := data.(int)
		s.Charge(3)
		if n < 50 {
			s.Schedule(1-lp, tm+0.01, n+1)
		}
	}
	k, _ := New(Config{NumLPs: 2, Lookahead: 0.01, Handler: h, Observer: obs})
	k.Schedule(0, 0, 0)
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if obsWindows != stats.Windows {
		t.Errorf("observer saw %d windows, stats say %d", obsWindows, stats.Windows)
	}
	if obsCharges != stats.TotalCharges() {
		t.Errorf("observer charges %d, stats %d", obsCharges, stats.TotalCharges())
	}
	var totalRemote int64
	for _, r := range stats.RemoteSends {
		totalRemote += r
	}
	if obsRemote != totalRemote {
		t.Errorf("observer remote %d, stats %d", obsRemote, totalRemote)
	}
}

// TestSimultaneousEventsDeterministic: events at identical times execute in
// insertion order per LP.
func TestSimultaneousEventsDeterministic(t *testing.T) {
	var order []int
	h := func(lp int, tm float64, data any, s *Scheduler) {
		order = append(order, data.(int))
	}
	k, _ := New(Config{NumLPs: 1, Lookahead: 1, Handler: h})
	for i := 0; i < 10; i++ {
		k.Schedule(0, 1.0, i)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, want insertion order", order)
		}
	}
}

func TestEmptyRun(t *testing.T) {
	k, _ := New(Config{NumLPs: 2, Lookahead: 1, Handler: func(int, float64, any, *Scheduler) {}})
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Windows != 0 {
		t.Errorf("empty run executed %d windows", stats.Windows)
	}
}

// TestManyLPsParallelSmoke exercises the barrier with many LPs.
func TestManyLPsParallelSmoke(t *testing.T) {
	const numLPs = 20
	h := func(lp int, tm float64, data any, s *Scheduler) {
		n := data.(int)
		s.Charge(1)
		if n < 100 {
			s.Schedule((lp+7)%numLPs, tm+0.005, n+1)
		}
	}
	k, _ := New(Config{NumLPs: numLPs, Lookahead: 0.005, Handler: h})
	for lp := 0; lp < numLPs; lp++ {
		k.Schedule(lp, 0, 0)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range stats.Events {
		total += e
	}
	if total != numLPs*101 {
		t.Errorf("total events = %d, want %d", total, numLPs*101)
	}
}

// TestKernelSpawnsNoGoroutines pins the single in-process kernel: with
// several CPUs available, neither Run (checked from the Observer, after each
// barrier) nor Stepper.Step over several local LPs (checked from the handler,
// mid-window) raises the goroutine count.
func TestKernelSpawnsNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const numLPs = 4
	base := runtime.NumGoroutine()
	peak := base
	sample := func() {
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
	}
	h := func(lp int, tm float64, data any, s *Scheduler) {
		sample()
		if n := data.(int); n > 0 {
			s.Schedule((lp+1)%numLPs, tm+0.01, n-1)
		}
	}
	build := func(observer WindowObserver) *Kernel {
		k, err := New(Config{NumLPs: numLPs, Lookahead: 0.01, Handler: h, Observer: observer})
		if err != nil {
			t.Fatal(err)
		}
		for lp := 0; lp < numLPs; lp++ {
			if err := k.Schedule(lp, 0, 20); err != nil {
				t.Fatal(err)
			}
		}
		return k
	}
	if _, err := build(func(float64, float64, []int64, []int64) { sample() }).Run(); err != nil {
		t.Fatal(err)
	}
	if peak > base {
		t.Errorf("Run: %d goroutines during the run, %d before", peak, base)
	}
	peak = base
	runStepped(t, 0.01, [][]int{{0, 1, 2, 3}}, func() *Kernel { return build(nil) })
	if peak > base {
		t.Errorf("Stepper.Step: %d goroutines during a window, %d before", peak, base)
	}
}
