package partition

import "math/rand"

// level holds one rung of the multilevel hierarchy: the coarse graph and the
// mapping from the finer graph's vertices to coarse vertices.
type level struct {
	graph *Graph
	// fineToCoarse[v] is the coarse vertex that fine vertex v collapsed into.
	fineToCoarse []int
}

// heavyEdgeMatch computes a matching of g by the heavy-edge heuristic:
// vertices are visited in random order and each unmatched vertex matches its
// unmatched neighbor reachable over the heaviest edge. maxW, when non-nil,
// caps the combined weight of a matched pair per constraint — without the
// cap, repeated coarsening can fuse hot vertices into coarse lumps heavier
// than a whole part's budget, making balanced initial partitions impossible.
// Returns match[v] = the partner of v, or v itself if unmatched.
func heavyEdgeMatch(g *Graph, rng *rand.Rand, maxW []int64) []int {
	n := g.NumVertices()
	match := make([]int, n)
	for v := range match {
		match[v] = -1
	}
	order := rng.Perm(n)
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		best := -1
		var bestW int64 = -1
		for _, e := range g.Adj[v] {
			if match[e.To] != -1 || e.Wgt <= bestW {
				continue
			}
			if exceedsCap(g, v, e.To, maxW) {
				continue
			}
			best, bestW = e.To, e.Wgt
		}
		if best == -1 {
			match[v] = v
		} else {
			match[v] = best
			match[best] = v
		}
	}
	return match
}

// exceedsCap reports whether merging u and v would exceed the per-constraint
// coarse-vertex weight cap.
func exceedsCap(g *Graph, u, v int, maxW []int64) bool {
	if maxW == nil {
		return false
	}
	for c, limit := range maxW {
		if limit > 0 && g.VWgt[u][c]+g.VWgt[v][c] > limit {
			return true
		}
	}
	return false
}

// coarsenFast collapses g along the given matching and returns the coarse
// level. Matched pairs become one coarse vertex whose weight vector is the
// sum of the pair's; parallel edges between coarse vertices are merged by
// summing weights; edges internal to a pair disappear.
func coarsenFast(g *Graph, match []int) level {
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
	// slot[cu] is the index of cv's edge to cu in cg.Adj[cv], valid where
	// owner[cu] == cv.
	slot := make([]int, numCoarse)
	owner := make([]int, numCoarse)
	for cu := range owner {
		owner[cu] = -1
	}
	for cv := 0; cv < numCoarse; cv++ {
		for i := range cg.VWgt[cv] {
			cg.VWgt[cv][i] = 0
		}
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
				if owner[cu] == cv {
					cg.Adj[cv][slot[cu]].Wgt += e.Wgt
				} else {
					owner[cu], slot[cu] = cv, len(cg.Adj[cv])
					cg.Adj[cv] = append(cg.Adj[cv], Edge{To: cu, Wgt: e.Wgt})
				}
			}
		}
	}
	return level{graph: cg, fineToCoarse: fineToCoarse}
}

// buildHierarchy coarsens g repeatedly until the coarse graph has at most
// coarseTo vertices or coarsening stops making progress (less than 8%
// shrinkage), returning the levels from finest to coarsest. levels[0].graph
// is the first coarse graph; the original g is not included.
func buildHierarchy(g *Graph, coarseTo int, rng *rand.Rand) []level {
	// Cap coarse-vertex weights at a few times the average weight of the
	// target coarse graph, so no coarse vertex approaches a part's budget.
	total := g.TotalVWgt()
	maxW := make([]int64, g.Ncon)
	for c, t := range total {
		maxW[c] = 4 * t / int64(coarseTo)
	}
	var levels []level
	cur := g
	for cur.NumVertices() > coarseTo {
		match := heavyEdgeMatch(cur, rng, maxW)
		lv := coarsenFast(cur, match)
		if lv.graph.NumVertices() > cur.NumVertices()*92/100 {
			// Matching has stalled (e.g. a star graph); stop coarsening.
			break
		}
		levels = append(levels, lv)
		cur = lv.graph
	}
	return levels
}
