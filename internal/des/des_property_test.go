package des

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCascade builds a deterministic pseudo-random event cascade driven by
// the payload value: each event spawns 0-2 follow-ups, local or remote,
// with times derived from the payload so every execution of one seed faces
// an identical workload.
func cascadeKernel(t *testing.T, numLPs int, lookahead float64, seed int64) *Kernel {
	t.Helper()
	h := func(lp int, tm float64, data any, s *Scheduler) {
		n := data.(int64)
		s.Charge(n%5 + 1)
		if n <= 0 {
			return
		}
		// Derive pseudo-random but deterministic choices from n.
		x := n*6364136223846793005 + 1442695040888963407
		spawn := int(uint64(x) % 3)
		for i := 0; i < spawn; i++ {
			y := x + int64(i)*997
			dst := int(uint64(y) % uint64(numLPs))
			child := n - 1 - int64(uint64(y)%3)
			if child < 0 {
				continue
			}
			if dst == lp {
				s.Schedule(lp, tm+lookahead/5, child)
			} else {
				s.Schedule(dst, tm+lookahead*(1+float64(uint64(y)%4)/4), child)
			}
		}
	}
	k, err := New(Config{NumLPs: numLPs, Lookahead: lookahead, Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2*numLPs; i++ {
		k.Schedule(rng.Intn(numLPs), rng.Float64()*0.01, int64(8+rng.Intn(8)))
	}
	return k
}

// randomCascade runs one cascade to completion with Kernel.Run.
func randomCascade(t *testing.T, numLPs int, lookahead float64, seed int64) *Stats {
	t.Helper()
	st, err := cascadeKernel(t, numLPs, lookahead, seed).Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPropertySequentialParallelEquivalence: for arbitrary cascades, the
// parallel layout — two steppers owning the even and the odd LPs, as two
// distributed workers would — must produce byte-identical statistics to
// Kernel.Run.
func TestPropertySequentialParallelEquivalence(t *testing.T) {
	f := func(seed int64, lpRaw uint8) bool {
		numLPs := 2 + int(lpRaw)%6
		seq := randomCascade(t, numLPs, 0.002, seed)
		parts := make([][]int, 2)
		for lp := 0; lp < numLPs; lp++ {
			parts[lp%2] = append(parts[lp%2], lp)
		}
		par := runStepped(t, 0.002, parts, func() *Kernel {
			return cascadeKernel(t, numLPs, 0.002, seed)
		})
		if seq.Windows != par.Windows || seq.SkippedTime != par.SkippedTime {
			return false
		}
		for lp := 0; lp < numLPs; lp++ {
			if seq.Events[lp] != par.Events[lp] ||
				seq.Charges[lp] != par.Charges[lp] ||
				seq.RemoteSends[lp] != par.RemoteSends[lp] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(77))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyConservation: every scheduled event is eventually executed —
// handler invocations equal initial events plus spawned events.
func TestPropertyConservation(t *testing.T) {
	var spawned, executed int64
	numLPs := 4
	L := 0.001
	h := func(lp int, tm float64, data any, s *Scheduler) {
		executed++
		n := data.(int)
		if n > 0 {
			spawned++
			s.Schedule((lp+1)%numLPs, tm+L, n-1)
		}
	}
	k, _ := New(Config{NumLPs: numLPs, Lookahead: L, Handler: h})
	const initial = 10
	for i := 0; i < initial; i++ {
		k.Schedule(i%numLPs, float64(i)*0.0001, 20)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if executed != initial+spawned {
		t.Errorf("executed %d, want %d initial + %d spawned", executed, initial, spawned)
	}
}

// TestPropertyWindowMonotonicity: observer windows arrive in strictly
// increasing, non-overlapping time order.
func TestPropertyWindowMonotonicity(t *testing.T) {
	lastEnd := -1.0
	violations := 0
	obs := func(start, end float64, charges, remote []int64) {
		if start < lastEnd-1e-12 || end <= start {
			violations++
		}
		lastEnd = end
	}
	h := func(lp int, tm float64, data any, s *Scheduler) {
		n := data.(int)
		if n > 0 {
			// Mix of near and far future events to force window skips.
			gap := 0.0007
			if n%5 == 0 {
				gap = 0.5
			}
			s.Schedule((lp+1)%3, tm+gap, n-1)
		}
	}
	k, _ := New(Config{NumLPs: 3, Lookahead: 0.0007, Handler: h, Observer: obs})
	k.Schedule(0, 0, 200)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Errorf("%d window ordering violations", violations)
	}
}

// TestPropertyChargesNonNegativeAndBounded: charges accumulate exactly what
// handlers report.
func TestPropertyChargesNonNegativeAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		st := randomCascade(t, 3, 0.001, seed)
		var events, charges int64
		for lp := 0; lp < 3; lp++ {
			if st.Charges[lp] < 0 || st.Events[lp] < 0 {
				return false
			}
			events += st.Events[lp]
			charges += st.Charges[lp]
		}
		// Each event charges 1..5.
		return charges >= events && charges <= 5*events
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
