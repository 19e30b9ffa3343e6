package partition

import "math/rand"

// greedyGrow computes an initial k-way partition of g by greedy graph
// growing: parts 0..k-2 are grown one at a time from a random seed vertex,
// always absorbing the unassigned vertex with the strongest connection to the
// growing part, until the part reaches its weight target; the leftovers form
// part k-1. The result is feasible in assignment (every vertex gets a part)
// but may be slightly unbalanced; callers refine it. fr is the caller's
// frontier scratch for g, empty on entry and on return.
func greedyGrow(g *Graph, k int, frac []float64, fr *frontier, rng *rand.Rand) []int {
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
		grown := growOnePart(g, part, p, target, maxVertices, fr, rng)
		unassigned -= grown
	}
	for v := range part {
		if part[v] == -1 {
			part[v] = k - 1
		}
	}
	return part
}

// frontier is the set of unassigned vertices adjacent to the growing part,
// with each one's connectivity to it. A vertex reached only by zero-weight
// edges is in the frontier at gain 0.
type frontier struct {
	gain []int64 // gain[v]: edge weight from v into the growing part
	pos  []int   // pos[v]: index of v in list, -1 when v is not in it
	list []int
}

func newFrontier(n int) *frontier {
	f := &frontier{gain: make([]int64, n), pos: make([]int, n), list: make([]int, 0, n)}
	for v := range f.pos {
		f.pos[v] = -1
	}
	return f
}

func (f *frontier) add(v int, w int64) {
	if f.pos[v] == -1 {
		f.pos[v], f.gain[v] = len(f.list), 0
		f.list = append(f.list, v)
	}
	f.gain[v] += w
}

func (f *frontier) remove(v int) {
	i := f.pos[v]
	if i == -1 {
		return
	}
	last := f.list[len(f.list)-1]
	f.list[i], f.pos[last] = last, i
	f.list = f.list[:len(f.list)-1]
	f.pos[v] = -1
}

// reset empties the frontier for the next part.
func (f *frontier) reset() {
	for _, v := range f.list {
		f.pos[v] = -1
	}
	f.list = f.list[:0]
}

// growOnePart grows part p from a random unassigned seed until any balance
// constraint reaches its target or maxVertices vertices have been absorbed.
// Returns the number of vertices assigned.
func growOnePart(g *Graph, part []int, p int, target []float64, maxVertices int, fr *frontier, rng *rand.Rand) int {
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

	defer fr.reset()
	wgt := make([]float64, g.Ncon)
	assign := func(v int) {
		part[v] = p
		for c, w := range g.VWgt[v] {
			wgt[c] += float64(w)
		}
		fr.remove(v)
		for _, e := range g.Adj[v] {
			if part[e.To] == -1 {
				fr.add(e.To, e.Wgt)
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
		// Absorb the frontier vertex with maximal connectivity, lowest
		// index on ties; if the frontier is empty (disconnected graph),
		// jump to a random unassigned vertex.
		best, bestW := -1, int64(-1)
		for _, v := range fr.list {
			if w := fr.gain[v]; w > bestW || (w == bestW && v < best) {
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
