package partition

import (
	"math/rand"
	"slices"
	"sync"
)

// partWeights returns the per-part, per-constraint weight sums of the
// assignment.
func partWeights(g *Graph, part []int, k int) [][]int64 {
	w := make([][]int64, k)
	flat := make([]int64, k*g.Ncon)
	for p := range w {
		w[p] = flat[p*g.Ncon : (p+1)*g.Ncon : (p+1)*g.Ncon]
	}
	for v, p := range part {
		for c, x := range g.VWgt[v] {
			w[p][c] += x
		}
	}
	return w
}

// partSizes returns the vertex count of each part.
func partSizes(part []int, k int) []int {
	s := make([]int, k)
	for _, p := range part {
		s[p]++
	}
	return s
}

// uniformFractions returns frac unchanged when it already holds k positive
// entries summing to ~1, or the uniform 1/k vector otherwise. Target
// fractions are how heterogeneous engine capacities reach the partitioner
// (METIS's tpwgts): part p may hold frac[p] of every constraint's total.
func uniformFractions(k int, frac []float64) []float64 {
	if len(frac) == k {
		ok := true
		var sum float64
		for _, f := range frac {
			if f <= 0 {
				ok = false
				break
			}
			sum += f
		}
		if ok && sum > 0.99 && sum < 1.01 {
			return frac
		}
	}
	out := make([]float64, k)
	for p := range out {
		out[p] = 1 / float64(k)
	}
	return out
}

// allowedCeiling returns, per part and constraint, the maximum weight part p
// may hold under tolerance tol and target fractions frac:
// (1+tol)·total[c]·frac[p]. A constraint whose total is 0 gets an unbounded
// ceiling.
func allowedCeiling(g *Graph, k int, tol float64, frac []float64) [][]float64 {
	total := g.TotalVWgt()
	ceil := make([][]float64, k)
	flat := make([]float64, k*g.Ncon)
	for p := range ceil {
		ceil[p] = flat[p*g.Ncon : (p+1)*g.Ncon : (p+1)*g.Ncon]
		for c, t := range total {
			if t == 0 {
				ceil[p][c] = 1e308
				continue
			}
			ceil[p][c] = (1 + tol) * float64(t) * frac[p]
		}
	}
	return ceil
}

// moveFits reports whether moving vertex v into part dst keeps every
// constraint of dst at or below its ceiling.
func moveFits(g *Graph, w [][]int64, v, dst int, ceil [][]float64) bool {
	for c, x := range g.VWgt[v] {
		if float64(w[dst][c]+x) > ceil[dst][c] {
			return false
		}
	}
	return true
}

// applyMove moves v from its current part to dst, updating part and weights.
func applyMove(g *Graph, part []int, w [][]int64, sizes []int, v, dst int) {
	src := part[v]
	for c, x := range g.VWgt[v] {
		w[src][c] -= x
		w[dst][c] += x
	}
	sizes[src]--
	sizes[dst]++
	part[v] = dst
}

// refine performs up to passes rounds of greedy boundary refinement on the
// assignment: each pass visits vertices in random order and moves a vertex to
// the adjacent part with the highest positive cut gain, provided the move
// keeps the destination under the balance ceiling and does not empty the
// source part. Zero-gain moves are taken when they strictly reduce the
// heaviest constraint load of the source part (they improve balance for
// free). Refinement stops early on a pass with no moves.
func refine(g *Graph, part []int, k int, tol float64, passes int, frac []float64, rng *rand.Rand) {
	frac = uniformFractions(k, frac)
	w := partWeights(g, part, k)
	sizes := partSizes(part, k)
	ceil := allowedCeiling(g, k, tol, frac)
	buf := scratchPool.Get().(*scratch)
	defer scratchPool.Put(buf)
	order := buf.ints(g.NumVertices())
	// conn[p] is the edge weight from the visited vertex into part p, valid
	// where mark[p] == stamp. A part reached only by zero-weight edges is
	// still adjacent, hence a candidate destination.
	cm := buf.int64s(2 * k)
	conn, mark := cm[:k], cm[k:]
	var stamp int64

	for pass := 0; pass < passes; pass++ {
		moved := 0
		for _, v := range permInto(rng, order) {
			src := part[v]
			if sizes[src] <= 1 {
				continue // never empty a part
			}
			stamp++
			for _, e := range g.Adj[v] {
				p := part[e.To]
				if mark[p] != stamp {
					mark[p], conn[p] = stamp, 0
				}
				conn[p] += e.Wgt
			}
			var internal int64
			if mark[src] == stamp {
				internal = conn[src]
			}
			bestDst, bestGain := -1, int64(0)
			bestBalance := false
			for dst := 0; dst < k; dst++ {
				if dst == src || mark[dst] != stamp {
					continue
				}
				gain := conn[dst] - internal
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

// permInto fills order with rng.Perm(len(order)), drawing the same random
// numbers, without allocating.
func permInto(rng *rand.Rand, order []int) []int {
	for i := range order {
		j := rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = i
	}
	return order
}

// balanceImproves reports whether moving v from src to dst strictly reduces
// the pairwise relative imbalance between the two parts (weights compared
// relative to each part's target fraction).
func balanceImproves(g *Graph, w [][]int64, v, src, dst int, frac []float64) bool {
	for c, x := range g.VWgt[v] {
		if x == 0 {
			continue
		}
		if float64(w[src][c])/frac[src] > float64(w[dst][c]+x)/frac[dst] {
			return true
		}
	}
	return false
}

// rebalance restores balance feasibility after refinement or projection by
// alternating two phases until neither makes progress. The push phase moves
// the least-cut-damage vertex out of any part exceeding its ceiling into the
// lightest part that can take it. The fill phase pulls the cheapest vertex
// into any part below its floor (1-tol)·avg — a ceiling alone cannot prevent
// one starving part while all the others hug the ceiling. All loops are
// bounded so hopeless instances (e.g. one giant vertex) terminate.
func rebalance(g *Graph, part []int, k int, tol float64, frac []float64) {
	st := newRebalanceState(g, part, k, tol, frac)
	defer st.release()
	maxMoves := 4 * g.NumVertices()
	for round := 0; round < 4; round++ {
		pushed := st.pushPhase(maxMoves)
		filled := st.fillPhase(maxMoves)
		if pushed+filled == 0 {
			return
		}
	}
}

// rebalanceState is one rebalance call's assignment and the bookkeeping
// derived from it. Everything a phase needs per move or per candidate is
// dense and taken from scratchPool on the call's first move: an already
// balanced assignment costs no more than its part weights.
type rebalanceState struct {
	g     *Graph
	part  []int
	k     int
	tol   float64
	frac  []float64
	w     [][]int64
	sizes []int
	ceil  [][]float64
	total []int64

	// buf holds vec, forced and seen once prepared.
	buf *scratch
	// vec[v·k+p] is the total edge weight from v into part p, kept current
	// by move in O(deg(v)).
	vec []int64
	// forced[v] counts the forced moves of v in the current phase; a vertex
	// gets at most two, so a hot vertex cannot ping-pong between the two
	// heaviest parts until the move budget is gone.
	forced []int64
	// hash is the Zobrist hash of part, kept current by move.
	hash uint64

	// Brent cycle search over push moves: seen is part as it was lam moves
	// ago, power the current search window (0 until the phase's first move).
	seen     []int
	seenHash uint64
	power    int
	lam      int
	// skipped counts the push moves cycle skipping accounted for without
	// making them.
	skipped int
}

func newRebalanceState(g *Graph, part []int, k int, tol float64, frac []float64) *rebalanceState {
	frac = uniformFractions(k, frac)
	return &rebalanceState{
		g:     g,
		part:  part,
		k:     k,
		tol:   tol,
		frac:  frac,
		w:     partWeights(g, part, k),
		sizes: partSizes(part, k),
		ceil:  allowedCeiling(g, k, tol, frac),
		total: g.TotalVWgt(),
	}
}

// scratch is reusable storage for one refine or rebalance call. The
// partitioner refines and rebalances at every level of every restart and
// trial, so the buffers are recycled across calls.
type scratch struct {
	i64 []int64
	idx []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// int64s returns a zeroed length-n slice of the int64 storage.
func (s *scratch) int64s(n int) []int64 {
	if cap(s.i64) < n {
		s.i64 = make([]int64, n)
	}
	s.i64 = s.i64[:n]
	clear(s.i64)
	return s.i64
}

// ints returns a length-n slice of the int storage; its contents are
// unspecified.
func (s *scratch) ints(n int) []int {
	if cap(s.idx) < n {
		s.idx = make([]int, n)
	}
	s.idx = s.idx[:n]
	return s.idx
}

// prepare builds the per-vertex state on the call's first move.
func (st *rebalanceState) prepare() {
	if st.buf != nil {
		return
	}
	n, k := st.g.NumVertices(), st.k
	st.buf = scratchPool.Get().(*scratch)
	vf := st.buf.int64s(n*k + n)
	st.vec, st.forced, st.seen = vf[:n*k], vf[n*k:], st.buf.ints(n)
	for v, adj := range st.g.Adj {
		for _, e := range adj {
			st.vec[v*k+st.part[e.To]] += e.Wgt
		}
	}
	for v, p := range st.part {
		st.hash ^= zobrist(v, p)
	}
}

// release returns the call's buffers for reuse.
func (st *rebalanceState) release() {
	if st.buf != nil {
		scratchPool.Put(st.buf)
		st.buf, st.vec, st.forced, st.seen = nil, nil, nil, nil
	}
}

// move moves v into part dst and updates everything derived from part.
func (st *rebalanceState) move(v, dst int) {
	src, k := st.part[v], st.k
	applyMove(st.g, st.part, st.w, st.sizes, v, dst)
	for _, e := range st.g.Adj[v] {
		st.vec[e.To*k+src] -= e.Wgt
		st.vec[e.To*k+dst] += e.Wgt
	}
	st.hash ^= zobrist(v, src) ^ zobrist(v, dst)
}

// zobrist is the hash key of "vertex v is in part p" (splitmix64 finalizer).
func zobrist(v, p int) uint64 {
	x := uint64(v)<<32 ^ uint64(p) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// markCycle restarts the cycle search from the current assignment.
func (st *rebalanceState) markCycle() {
	copy(st.seen, st.part)
	st.seenHash = st.hash
	st.power, st.lam = 1, 0
}

// cycleSkip advances the cycle search by one unforced push move. When the
// assignment equals the one lam moves ago, the pushes since then repeat
// forever, so it returns the moves of the whole periods that fit in the
// remaining budget: making them would end on this same assignment.
func (st *rebalanceState) cycleSkip(remaining int) int {
	st.lam++
	if st.hash == st.seenHash && slices.Equal(st.part, st.seen) {
		skip := remaining / st.lam * st.lam
		st.skipped += skip
		st.markCycle()
		return skip
	}
	if st.lam == st.power {
		copy(st.seen, st.part)
		st.seenHash = st.hash
		st.power *= 2
		st.lam = 0
	}
	return 0
}

// pushPhase sheds weight from over-ceiling parts; returns moves made.
//
// Between forced moves the next push is a pure function of part: w, sizes
// and vec derive from it, and forced changes only on a forced move. So once
// the assignment repeats, the moves repeat with it until the budget runs
// out; cycleSkip counts those moves instead of making them.
func (st *rebalanceState) pushPhase(maxMoves int) int {
	g, part, k, w, sizes, ceil := st.g, st.part, st.k, st.w, st.sizes, st.ceil
	clear(st.forced)
	st.power = 0
	moves := 0
	for move := 0; move < maxMoves; move++ {
		over, overC := mostOverweight(g, w, ceil)
		if over == -1 {
			break
		}
		st.prepare()
		if st.power == 0 {
			st.markCycle()
		}
		// Candidate vertices of the overweight part, best (least cut damage
		// per unit of weight shed) first. The winner is the first (v, dst)
		// of least cost among feasible pairs, so the feasibility check is
		// only needed for a pair that would beat the current best.
		bestV, bestDst := -1, -1
		var bestCost float64
		if sizes[over] > 1 {
			for v, p := range part {
				wv := g.VWgt[v][overC]
				if p != over || wv == 0 {
					continue // moving it would not help the violated constraint
				}
				row := st.vec[v*k : v*k+k]
				internal := row[over]
				for dst, ext := range row {
					if dst == over {
						continue
					}
					cost := float64(internal-ext) / float64(wv)
					if bestV != -1 && cost >= bestCost {
						continue
					}
					if !fitsAfterMove(g, w, v, dst, ceil, overC) {
						continue
					}
					bestV, bestDst, bestCost = v, dst, cost
				}
			}
		}
		forced := bestV == -1
		if forced {
			// No ceiling-respecting move exists. Force progress: shed the
			// least-damaging vertex to the part lightest on the violated
			// constraint, ignoring other ceilings (the next iterations can
			// repair them). Without this fallback, multi-constraint
			// instances wedge far from balance.
			dst := lightestPart(w, over, overC, st.frac)
			if dst == -1 || sizes[over] <= 1 {
				break
			}
			for v, p := range part {
				wv := g.VWgt[v][overC]
				if p != over || wv == 0 || st.forced[v] >= 2 {
					continue
				}
				cost := float64(st.vec[v*k+over]-st.vec[v*k+dst]) / float64(wv)
				if bestV == -1 || cost < bestCost {
					bestV, bestDst, bestCost = v, dst, cost
				}
			}
			if bestV == -1 {
				break // truly stuck (single movable vertex, etc.)
			}
			st.forced[bestV]++
		}
		st.move(bestV, bestDst)
		moves++
		if forced {
			st.markCycle()
		} else if skip := st.cycleSkip(maxMoves - move - 1); skip > 0 {
			move += skip
			moves += skip
		}
	}
	return moves
}

// fillPhase pulls weight into under-floor parts; returns moves made. Every
// fill move is forced-counted, so fill never cycles.
func (st *rebalanceState) fillPhase(maxMoves int) int {
	g, part, k, w, sizes, total := st.g, st.part, st.k, st.w, st.sizes, st.total
	clear(st.forced)
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
		st.prepare()
		floor := (1 - st.tol) * float64(total[starveC]) * st.frac[donor]
		headroom := st.ceil[starve][starveC] - float64(w[starve][starveC])
		bestV := -1
		var bestCost float64
		for v, p := range part {
			wv := g.VWgt[v][starveC]
			if p != donor || wv == 0 || st.forced[v] >= 2 {
				continue
			}
			// The donor must not fall below the floor itself, and the
			// incoming vertex must not blow the receiver's own ceiling.
			if float64(w[donor][starveC]-wv) < floor {
				continue
			}
			if float64(wv) > headroom {
				continue
			}
			cost := float64(st.vec[v*k+donor]-st.vec[v*k+starve]) / float64(wv)
			if bestV == -1 || cost < bestCost {
				bestV, bestCost = v, cost
			}
		}
		if bestV == -1 {
			return moves
		}
		st.forced[bestV]++
		st.move(bestV, starve)
		moves++
	}
	return moves
}

// mostUnderweight returns the part and constraint with the largest relative
// shortfall below the floor (1-tol)·total·frac[p], or (-1, -1) if none.
func mostUnderweight(g *Graph, w [][]int64, k int, tol float64, total []int64, frac []float64) (int, int) {
	bestP, bestC := -1, -1
	var worst float64 = 1
	for p := range w {
		for c, x := range w[p] {
			if total[c] == 0 {
				continue
			}
			floor := (1 - tol) * float64(total[c]) * frac[p]
			if floor <= 0 {
				continue
			}
			r := float64(x) / floor
			if r < worst {
				worst, bestP, bestC = r, p, c
			}
		}
	}
	return bestP, bestC
}

// heaviestPart returns the part (other than exclude) with the largest weight
// on constraint c relative to its target fraction, or -1 when k == 1.
func heaviestPart(w [][]int64, exclude, c int, frac []float64) int {
	best := -1
	for p := range w {
		if p == exclude {
			continue
		}
		if best == -1 || float64(w[p][c])/frac[p] > float64(w[best][c])/frac[best] {
			best = p
		}
	}
	return best
}

// fitsAfterMove is like moveFits but tolerates the destination exceeding the
// ceiling on constraints other than the violated one by a small margin; this
// lets rebalance make progress on the constraint that matters most.
func fitsAfterMove(g *Graph, w [][]int64, v, dst int, ceil [][]float64, violated int) bool {
	for c, x := range g.VWgt[v] {
		limit := ceil[dst][c]
		if c != violated {
			limit *= 1.10
		}
		if float64(w[dst][c]+x) > limit {
			return false
		}
	}
	return true
}

// lightestPart returns the part (other than exclude) with the smallest
// weight on constraint c relative to its target fraction, or -1 when k == 1.
func lightestPart(w [][]int64, exclude, c int, frac []float64) int {
	best := -1
	for p := range w {
		if p == exclude {
			continue
		}
		if best == -1 || float64(w[p][c])/frac[p] < float64(w[best][c])/frac[best] {
			best = p
		}
	}
	return best
}

// mostOverweight returns the part and constraint with the largest relative
// ceiling violation, or (-1, -1) if everything is within bounds.
func mostOverweight(g *Graph, w [][]int64, ceil [][]float64) (int, int) {
	bestP, bestC := -1, -1
	var worst float64 = 1
	for p := range w {
		for c, x := range w[p] {
			if ceil[p][c] <= 0 {
				continue
			}
			r := float64(x) / ceil[p][c]
			if r > worst {
				worst, bestP, bestC = r, p, c
			}
		}
	}
	return bestP, bestC
}
