package partition

// Reference implementation of the partitioner's map-based inner loops:
// refinement and rebalancing (replaced by rebalance's incremental
// connectivity vectors, cost-first candidate filter and cycle skipping),
// coarsening and greedy growing (replaced by dense scratch). It is kept
// verbatim, apart from identifier names, as the oracle the production code
// is diffed against.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refConnectivity computes, for vertex v, the total edge weight from v into each
// part it touches, reusing the provided scratch map.
func refConnectivity(g *Graph, part []int, v int, conn map[int]int64) {
	clear(conn)
	for _, e := range g.Adj[v] {
		conn[part[e.To]] += e.Wgt
	}
}

// refRefine performs up to passes rounds of greedy boundary refinement on the
// assignment: each pass visits vertices in random order and moves a vertex to
// the adjacent part with the highest positive cut gain, provided the move
// keeps the destination under the balance ceiling and does not empty the
// source part. Zero-gain moves are taken when they strictly reduce the
// heaviest constraint load of the source part (they improve balance for
// free). Refinement stops early on a pass with no moves.
func refRefine(g *Graph, part []int, k int, tol float64, passes int, frac []float64, rng *rand.Rand) {
	frac = uniformFractions(k, frac)
	w := partWeights(g, part, k)
	sizes := partSizes(part, k)
	ceil := allowedCeiling(g, k, tol, frac)
	conn := make(map[int]int64, k)

	for pass := 0; pass < passes; pass++ {
		moved := 0
		for _, v := range rng.Perm(g.NumVertices()) {
			src := part[v]
			if sizes[src] <= 1 {
				continue // never empty a part
			}
			refConnectivity(g, part, v, conn)
			internal := conn[src]
			bestDst, bestGain := -1, int64(0)
			bestBalance := false
			// Iterate parts in index order (not map order) so results are
			// deterministic for a fixed seed.
			for dst := 0; dst < k; dst++ {
				ext, touches := conn[dst]
				if dst == src || !touches {
					continue
				}
				gain := ext - internal
				if gain < 0 {
					continue
				}
				if !moveFits(g, w, v, dst, ceil) {
					continue
				}
				if gain > bestGain {
					bestDst, bestGain, bestBalance = dst, gain, false
					continue
				}
				if gain == 0 && bestDst == -1 && balanceImproves(g, w, v, src, dst, frac) {
					// Zero-gain candidate: only worthwhile if it improves
					// balance (source heavier than destination on some
					// constraint the vertex contributes to).
					bestDst, bestBalance = dst, true
				}
			}
			if bestDst != -1 && (bestGain > 0 || bestBalance) {
				applyMove(g, part, w, sizes, v, bestDst)
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// refRebalance restores balance feasibility after refinement or projection by
// alternating two phases until neither makes progress. The push phase moves
// the least-cut-damage vertex out of any part exceeding its ceiling into the
// lightest part that can take it. The fill phase pulls the cheapest vertex
// into any part below its floor (1-tol)·avg — a ceiling alone cannot prevent
// one starving part while all the others hug the ceiling. All loops are
// bounded so hopeless instances (e.g. one giant vertex) terminate.
func refRebalance(g *Graph, part []int, k int, tol float64, frac []float64) {
	frac = uniformFractions(k, frac)
	st := &refRebalanceState{
		g:     g,
		part:  part,
		k:     k,
		tol:   tol,
		frac:  frac,
		w:     partWeights(g, part, k),
		sizes: partSizes(part, k),
		ceil:  allowedCeiling(g, k, tol, frac),
		conn:  make(map[int]int64, k),
		total: g.TotalVWgt(),
	}
	maxMoves := 4 * g.NumVertices()
	for round := 0; round < 4; round++ {
		pushed := st.pushPhase(maxMoves)
		filled := st.fillPhase(maxMoves)
		if pushed+filled == 0 {
			return
		}
	}
}

type refRebalanceState struct {
	g     *Graph
	part  []int
	k     int
	tol   float64
	frac  []float64
	w     [][]int64
	sizes []int
	ceil  [][]float64
	conn  map[int]int64
	total []int64
}

// pushPhase sheds weight from over-ceiling parts; returns moves made.
func (st *refRebalanceState) pushPhase(maxMoves int) int {
	g, part, k, w, sizes, ceil, conn := st.g, st.part, st.k, st.w, st.sizes, st.ceil, st.conn
	// forcedMoves caps how often a vertex may be moved by the forced
	// fallback, preventing a hot vertex from ping-ponging between the two
	// heaviest parts until the move budget is gone.
	forcedMoves := make(map[int]int)
	moves := 0
	stuck := false
	for move := 0; move < maxMoves && !stuck; move++ {
		over, overC := mostOverweight(g, w, ceil)
		if over == -1 {
			break
		}
		// Candidate vertices of the overweight part, best (least cut damage
		// per unit of weight shed) first.
		bestV, bestDst := -1, -1
		var bestCost float64
		for v, p := range part {
			if p != over || sizes[over] <= 1 {
				continue
			}
			if g.VWgt[v][overC] == 0 {
				continue // moving it would not help the violated constraint
			}
			refConnectivity(g, part, v, conn)
			internal := conn[over]
			for dst := 0; dst < k; dst++ {
				if dst == over {
					continue
				}
				if !fitsAfterMove(g, w, v, dst, ceil, overC) {
					continue
				}
				cost := float64(internal-conn[dst]) / float64(g.VWgt[v][overC])
				if bestV == -1 || cost < bestCost {
					bestV, bestDst, bestCost = v, dst, cost
				}
			}
		}
		if bestV == -1 {
			// No ceiling-respecting move exists. Force progress: shed the
			// least-damaging vertex to the part lightest on the violated
			// constraint, ignoring other ceilings (the next iterations can
			// repair them). Without this fallback, multi-constraint
			// instances wedge far from balance.
			dst := lightestPart(w, over, overC, st.frac)
			if dst == -1 {
				stuck = true
				break
			}
			for v, p := range part {
				if p != over || sizes[over] <= 1 || g.VWgt[v][overC] == 0 {
					continue
				}
				if forcedMoves[v] >= 2 {
					continue
				}
				refConnectivity(g, part, v, conn)
				cost := float64(conn[over]-conn[dst]) / float64(g.VWgt[v][overC])
				if bestV == -1 || cost < bestCost {
					bestV, bestDst, bestCost = v, dst, cost
				}
			}
			if bestV == -1 {
				stuck = true // truly stuck (single movable vertex, etc.)
				break
			}
			forcedMoves[bestV]++
		}
		if bestV != -1 {
			applyMove(g, part, w, sizes, bestV, bestDst)
			moves++
		}
	}
	return moves
}

// fillPhase pulls weight into under-floor parts; returns moves made.
func (st *refRebalanceState) fillPhase(maxMoves int) int {
	g, part, k, w, sizes, conn, total := st.g, st.part, st.k, st.w, st.sizes, st.conn, st.total
	forcedMoves := make(map[int]int)
	moves := 0
	for move := 0; move < maxMoves; move++ {
		starve, starveC := mostUnderweight(g, w, k, st.tol, total, st.frac)
		if starve == -1 {
			return moves
		}
		donor := heaviestPart(w, starve, starveC, st.frac)
		if donor == -1 || sizes[donor] <= 1 {
			return moves
		}
		floor := (1 - st.tol) * float64(total[starveC]) * st.frac[donor]
		headroom := st.ceil[starve][starveC] - float64(w[starve][starveC])
		bestV := -1
		var bestCost float64
		for v, p := range part {
			if p != donor || g.VWgt[v][starveC] == 0 || forcedMoves[v] >= 2 {
				continue
			}
			// The donor must not fall below the floor itself, and the
			// incoming vertex must not blow the receiver's own ceiling.
			if float64(w[donor][starveC]-g.VWgt[v][starveC]) < floor {
				continue
			}
			if float64(g.VWgt[v][starveC]) > headroom {
				continue
			}
			refConnectivity(g, part, v, conn)
			cost := float64(conn[donor]-conn[starve]) / float64(g.VWgt[v][starveC])
			if bestV == -1 || cost < bestCost {
				bestV, bestCost = v, cost
			}
		}
		if bestV == -1 {
			return moves
		}
		forcedMoves[bestV]++
		applyMove(g, part, w, sizes, bestV, starve)
		moves++
	}
	return moves
}

// refCoarsenFast is a single-pass variant of coarsen used for larger graphs.
func refCoarsenFast(g *Graph, match []int) level {
	n := g.NumVertices()
	fineToCoarse := make([]int, n)
	for v := range fineToCoarse {
		fineToCoarse[v] = -1
	}
	numCoarse := 0
	members := make([][2]int, 0, n) // coarse vertex -> up to two fine members
	for v := 0; v < n; v++ {
		if fineToCoarse[v] != -1 {
			continue
		}
		fineToCoarse[v] = numCoarse
		pair := [2]int{v, -1}
		if m := match[v]; m != v {
			fineToCoarse[m] = numCoarse
			pair[1] = m
		}
		members = append(members, pair)
		numCoarse++
	}

	cg := NewGraph(numCoarse, g.Ncon)
	slot := make(map[int]int)
	for cv := 0; cv < numCoarse; cv++ {
		for i := range cg.VWgt[cv] {
			cg.VWgt[cv][i] = 0
		}
		clear(slot)
		for _, v := range members[cv] {
			if v == -1 {
				continue
			}
			for c, w := range g.VWgt[v] {
				cg.VWgt[cv][c] += w
			}
			for _, e := range g.Adj[v] {
				cu := fineToCoarse[e.To]
				if cu == cv {
					continue
				}
				if idx, ok := slot[cu]; ok {
					cg.Adj[cv][idx].Wgt += e.Wgt
				} else {
					slot[cu] = len(cg.Adj[cv])
					cg.Adj[cv] = append(cg.Adj[cv], Edge{To: cu, Wgt: e.Wgt})
				}
			}
		}
	}
	return level{graph: cg, fineToCoarse: fineToCoarse}
}

// refGreedyGrow computes an initial k-way partition of g by greedy graph
// growing: parts 0..k-2 are grown one at a time from a random seed vertex,
// always absorbing the unassigned vertex with the strongest connection to the
// growing part, until the part reaches its weight target; the leftovers form
// part k-1. The result is feasible in assignment (every vertex gets a part)
// but may be slightly unbalanced; callers refine it.
func refGreedyGrow(g *Graph, k int, frac []float64, rng *rand.Rand) []int {
	frac = uniformFractions(k, frac)
	n := g.NumVertices()
	part := make([]int, n)
	for v := range part {
		part[v] = -1
	}
	total := g.TotalVWgt()

	unassigned := n
	for p := 0; p < k-1 && unassigned > 0; p++ {
		// Part p's weight target under its capacity fraction.
		target := make([]float64, g.Ncon)
		for c, t := range total {
			target[c] = float64(t) * frac[p]
		}
		// Reserve room: never grow a part so large that the remaining parts
		// cannot each receive at least one vertex.
		maxVertices := unassigned - (k - 1 - p)
		if maxVertices < 1 {
			maxVertices = 1
		}
		grown := refGrowOnePart(g, part, p, target, maxVertices, rng)
		unassigned -= grown
	}
	for v := range part {
		if part[v] == -1 {
			part[v] = k - 1
		}
	}
	return part
}

// refGrowOnePart grows part p from a random unassigned seed until any balance
// constraint reaches its target or maxVertices vertices have been absorbed.
// Returns the number of vertices assigned.
func refGrowOnePart(g *Graph, part []int, p int, target []float64, maxVertices int, rng *rand.Rand) int {
	n := g.NumVertices()
	seed := -1
	// Pick a random unassigned seed.
	start := rng.Intn(n)
	for i := 0; i < n; i++ {
		v := (start + i) % n
		if part[v] == -1 {
			seed = v
			break
		}
	}
	if seed == -1 {
		return 0
	}

	wgt := make([]float64, g.Ncon)
	gain := make(map[int]int64) // unassigned frontier vertex -> connectivity to part p
	assign := func(v int) {
		part[v] = p
		for c, w := range g.VWgt[v] {
			wgt[c] += float64(w)
		}
		delete(gain, v)
		for _, e := range g.Adj[v] {
			if part[e.To] == -1 {
				gain[e.To] += e.Wgt
			}
		}
	}
	reachedTarget := func() bool {
		for c := range wgt {
			if target[c] > 0 && wgt[c] >= target[c] {
				return true
			}
		}
		return false
	}

	assign(seed)
	count := 1
	for count < maxVertices && !reachedTarget() {
		// Absorb the frontier vertex with maximal connectivity; if the
		// frontier is empty (disconnected graph), jump to a random
		// unassigned vertex.
		best, bestW := -1, int64(-1)
		for v, w := range gain {
			if w > bestW || (w == bestW && v < best) {
				best, bestW = v, w
			}
		}
		if best == -1 {
			start := rng.Intn(n)
			for i := 0; i < n; i++ {
				v := (start + i) % n
				if part[v] == -1 {
					best = v
					break
				}
			}
			if best == -1 {
				break
			}
		}
		assign(best)
		count++
	}
	return count
}

// rebalanceTestGraph builds a connected random graph with ncon constraints.
// Vertex weights are skewed (a few heavy vertices, some zero entries) so
// multi-constraint rebalancing has to force moves and can ping-pong, and some
// edges weigh zero so a part can be adjacent at zero connectivity.
func rebalanceTestGraph(rng *rand.Rand, n, ncon int) *Graph {
	g := NewGraph(n, ncon)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n, int64(rng.Intn(9)))
		for c := 0; c < ncon; c++ {
			switch r := rng.Intn(10); {
			case r == 0:
				g.VWgt[v][c] = 0
			case r == 1:
				g.VWgt[v][c] = int64(10 + rng.Intn(40))
			default:
				g.VWgt[v][c] = int64(1 + rng.Intn(5))
			}
		}
	}
	for i := 0; i < 2*n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.AddEdge(u, v, int64(rng.Intn(9)))
		}
	}
	return g
}

// rebalanceTestStart returns a starting assignment of the given kind with no
// empty part: "random", "projected" (a random coarse assignment projected
// through a coarsening hierarchy) or "balanced" (a full Partition result).
func rebalanceTestStart(rng *rand.Rand, g *Graph, k int, kind string, frac []float64) []int {
	n := g.NumVertices()
	var part []int
	switch kind {
	case "random":
		part = make([]int, n)
		for v := range part {
			part[v] = rng.Intn(k)
		}
	case "projected":
		levels := buildHierarchy(g, 2*k, rng)
		coarse := g
		if len(levels) > 0 {
			coarse = levels[len(levels)-1].graph
		}
		part = make([]int, coarse.NumVertices())
		for v := range part {
			part[v] = rng.Intn(k)
		}
		for i := len(levels) - 1; i >= 0; i-- {
			part = project(part, levels[i].fineToCoarse, len(levels[i].fineToCoarse))
		}
	case "balanced":
		var err error
		part, err = Partition(g, k, Options{Seed: rng.Int63(), PartFractions: frac})
		if err != nil {
			panic(err)
		}
	}
	for p := 0; p < k; p++ {
		part[(p*7)%n] = p
	}
	return part
}

// TestRebalanceMatchesReference diffs refine and rebalance against the
// reference implementation on seeded random instances: every push and fill
// phase must return the same move count and leave the same assignment, and
// refine must make the same moves and consume the same random numbers.
func TestRebalanceMatchesReference(t *testing.T) {
	skipped := 0
	for seed := int64(1); seed <= 30; seed++ {
		for _, kind := range []string{"random", "projected", "balanced"} {
			rng := rand.New(rand.NewSource(seed))
			ncon := 1 + int(seed)%3
			k := 2 + rng.Intn(7)
			n := k + 20 + rng.Intn(120)
			tol := []float64{0.03, 0.05}[seed%2]
			var frac []float64
			if seed%3 == 0 {
				frac = make([]float64, k)
				var sum float64
				for p := range frac {
					frac[p] = 1 + rng.Float64()*3
					sum += frac[p]
				}
				for p := range frac {
					frac[p] /= sum
				}
			}
			g := rebalanceTestGraph(rng, n, ncon)
			start := rebalanceTestStart(rng, g, k, kind, frac)
			name := fmt.Sprintf("seed%d/%s/n%d/k%d/ncon%d", seed, kind, n, k, ncon)

			got, want := slices.Clone(start), slices.Clone(start)
			st := newRebalanceState(g, got, k, tol, frac)
			ref := &refRebalanceState{
				g:     g,
				part:  want,
				k:     k,
				tol:   tol,
				frac:  uniformFractions(k, frac),
				w:     partWeights(g, want, k),
				sizes: partSizes(want, k),
				ceil:  allowedCeiling(g, k, tol, uniformFractions(k, frac)),
				conn:  make(map[int]int64, k),
				total: g.TotalVWgt(),
			}
			maxMoves := 4 * n
			for round := 0; round < 4; round++ {
				gp, wp := st.pushPhase(maxMoves), ref.pushPhase(maxMoves)
				if gp != wp || !slices.Equal(got, want) {
					t.Fatalf("%s round %d: push made %d moves, reference %d; assignments equal: %v",
						name, round, gp, wp, slices.Equal(got, want))
				}
				gf, wf := st.fillPhase(maxMoves), ref.fillPhase(maxMoves)
				if gf != wf || !slices.Equal(got, want) {
					t.Fatalf("%s round %d: fill made %d moves, reference %d; assignments equal: %v",
						name, round, gf, wf, slices.Equal(got, want))
				}
				if gp+gf == 0 {
					break
				}
			}
			skipped += st.skipped
			st.release()

			got, want = slices.Clone(start), slices.Clone(start)
			rebalance(g, got, k, tol, frac)
			refRebalance(g, want, k, tol, frac)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: rebalance differs from reference", name)
			}

			got, want = slices.Clone(start), slices.Clone(start)
			rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			refine(g, got, k, tol, 10, frac, rngGot)
			refRefine(g, want, k, tol, 10, frac, rngWant)
			if !slices.Equal(got, want) || rngGot.Int63() != rngWant.Int63() {
				t.Fatalf("%s: refine differs from reference", name)
			}
		}
	}
	if skipped == 0 {
		t.Error("no instance exercised push cycle skipping")
	}
	t.Logf("push moves accounted for by cycle skipping: %d", skipped)
}

// TestCoarsenAndGrowMatchReference diffs coarsenFast (coarse graph,
// adjacency order included) and greedyGrow (assignment and random numbers
// consumed) against the reference implementation.
func TestCoarsenAndGrowMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ncon := 1 + int(seed)%3
		k := 2 + rng.Intn(7)
		g := rebalanceTestGraph(rng, k+20+rng.Intn(120), ncon)
		match := heavyEdgeMatch(g, rng, nil)
		if got, want := coarsenFast(g, match), refCoarsenFast(g, match); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: coarsenFast differs from reference", seed)
		}
		rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, want := greedyGrow(g, k, nil, newFrontier(g.NumVertices()), rngGot), refGreedyGrow(g, k, nil, rngWant)
		if !slices.Equal(got, want) || rngGot.Int63() != rngWant.Int63() {
			t.Fatalf("seed %d: greedyGrow differs from reference", seed)
		}
	}
}

// TestPartitionProperties is a seeded property test of the whole
// partitioner: no part is ever empty, the same seed gives the same
// assignment, and the parts' per-constraint weights sum to the graph's.
func TestPartitionProperties(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ncon := 1 + rng.Intn(3)
		k := 2 + rng.Intn(7)
		n := k + rng.Intn(200)
		g := rebalanceTestGraph(rng, n, ncon)
		opts := Options{Seed: seed, Imbalance: []float64{0.03, 0.05, 0.10}[rng.Intn(3)]}
		if seed%2 == 0 {
			opts.Strategy = RecursiveBisection
		}
		part, err := Partition(g, k, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := Verify(g, part, k); err != nil {
			t.Fatalf("seed %d (n %d, k %d): %v", seed, n, k, err)
		}
		again, err := Partition(g, k, opts)
		if err != nil || !slices.Equal(part, again) {
			t.Fatalf("seed %d: same seed, different assignment", seed)
		}
		sums := make([]int64, ncon)
		for _, pw := range PartWeights(g, part, k) {
			for c, x := range pw {
				sums[c] += x
			}
		}
		if total := g.TotalVWgt(); !slices.Equal(sums, total) {
			t.Fatalf("seed %d: part weights sum to %v, graph total %v", seed, sums, total)
		}
	}
}

// BenchmarkRebalance times one rebalance of a random three-constraint start
// on 400 vertices and 8 parts, production code against the reference.
func BenchmarkRebalance(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := rebalanceTestGraph(rng, 400, 3)
	start := rebalanceTestStart(rng, g, 8, "random", nil)
	for _, impl := range []struct {
		name string
		run  func(*Graph, []int, int, float64, []float64)
	}{{"incremental", rebalance}, {"reference", refRebalance}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			part := make([]int, len(start))
			for i := 0; i < b.N; i++ {
				copy(part, start)
				impl.run(g, part, 8, 0.03, nil)
			}
		})
	}
}
