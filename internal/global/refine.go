package global

import (
	"context"

	"rdlroute/internal/dt"
	"rdlroute/internal/obs"
	"rdlroute/internal/rgraph"
)

// Diagonal utility refinement (§III-A3b, Eq. 3).
//
// The number of guides squeezing between vias v_i and v_j — where tiles
// κ(k,l,i) and κ(k,l,j) share edge (k,l) — is bounded by d(v_i, v_j)
// measured in wire pitches. Guides contributing to that squeeze are: those
// crossing edge (k,l) itself (Υ_{k,l} = the edge node's usage) and those
// wrapping corner i of tile (k,l,i) or corner j of tile (k,l,j) (the
// cross-tile link usages U_{(k,l),i} and U_{(k,l),j}). When
//
//	(U_{(k,l),i} + U_{(k,l),j} + Υ_{k,l} + 1) · (w_w + w_s) ≥ d(v_i, v_j)
//
// the red-route situation of Fig. 9(a) exists even though neither Eq. 1 nor
// Eq. 2 capacity is violated. The fix reduces the edge node's capacity and
// reroutes the nets crossing it until no violation remains.

// maxDiagonalRounds bounds the refinement loop; each round strictly reduces
// some edge-node capacity so termination is guaranteed anyway, but designs
// with thousands of violations should not stall the router.
const maxDiagonalRounds = 200

// refineDiagonal runs the refinement loop and returns the number of
// capacity reductions performed. Cancelling ctx stops the loop between
// rounds, keeping the reductions applied so far.
func (r *Router) refineDiagonal(ctx context.Context) int {
	reductions := 0
	for round := 0; round < maxDiagonalRounds; round++ {
		if obs.Stopped(ctx) {
			return reductions
		}
		e := r.findDiagonalViolation()
		if e == rgraph.Invalid {
			return reductions
		}
		// Reduce the edge node's capacity below its current usage so the
		// reroute must move at least one net off it.
		newCap := r.nodeUse[e] - 1
		if newCap < 0 {
			newCap = 0
		}
		r.nodeCap[e] = newCap
		reductions++

		// Rip up and reroute every net currently crossing the edge node.
		var victims []int
		for ni, g := range r.guides {
			if g == nil {
				continue
			}
			for _, id := range g.Nodes {
				if id == e {
					victims = append(victims, ni)
					break
				}
			}
		}
		for _, ni := range victims {
			r.ripUp(r.guides[ni])
		}
		for _, ni := range victims {
			sc := r.scratch()
			sr, err := r.route(sc, r.G.Design.Nets[ni])
			r.foldSearch(sc, err)
			if err != nil {
				continue // stays unrouted; reported by the caller
			}
			r.commit(sr)
		}
	}
	return reductions
}

// findDiagonalViolation scans all interior edge nodes and returns the first
// violating Eq. 3, or Invalid.
func (r *Router) findDiagonalViolation() rgraph.NodeID {
	for li := range r.G.Layers {
		for ei, e := range r.G.Layers[li].Mesh.Edges() {
			if en, ok := r.diagonalViolation(li, ei, e); ok {
				return en
			}
		}
	}
	return rgraph.Invalid
}

// diagonalViolation evaluates Eq. 3 on mesh edge ei (e) of layer li and
// returns the edge's node with whether it violates. Hull edges, which bound
// a single tile, have no diagonal and never violate.
func (r *Router) diagonalViolation(li, ei int, e dt.Edge) (rgraph.NodeID, bool) {
	lg := &r.G.Layers[li]
	tris := lg.Mesh.EdgeTris(ei)
	if tris[1] == -1 {
		return rgraph.Invalid, false
	}
	en := lg.EdgeNode[ei]
	vi, okI := lg.Mesh.OppositeVertex(tris[0], e)
	vj, okJ := lg.Mesh.OppositeVertex(tris[1], e)
	if !okI || !okJ {
		return en, false
	}
	u1 := r.cornerUse(li, tris[0], vi)
	u2 := r.cornerUse(li, tris[1], vj)
	upsilon := r.nodeUse[en]
	if upsilon == 0 && u1 == 0 && u2 == 0 {
		return en, false
	}
	d := lg.Mesh.Points[vi].Dist(lg.Mesh.Points[vj])
	return en, float64(u1+u2+upsilon+1)*r.G.Design.Rules.Pitch() >= d
}

// cornerLink returns the cross-tile link wrapping mesh vertex v in triangle
// tri of layer li, or -1.
func (r *Router) cornerLink(li, tri, v int) int {
	tile := r.G.TileOf(li, tri)
	ord := vertexOrdinal(tile, v)
	if ord == -1 {
		return -1
	}
	return int(tile.CrossLinks[ord])
}

// cornerUse returns the usage of the cross-tile link wrapping mesh vertex v
// in triangle tri of layer li.
func (r *Router) cornerUse(li, tri, v int) int {
	if l := r.cornerLink(li, tri, v); l != -1 {
		return r.linkUse[l]
	}
	return 0
}

// DiagonalViolations counts current Eq. 3 violations; exported for tests and
// the ablation bench.
func (r *Router) DiagonalViolations() int {
	count := 0
	for li := range r.G.Layers {
		for ei, e := range r.G.Layers[li].Mesh.Edges() {
			if _, ok := r.diagonalViolation(li, ei, e); ok {
				count++
			}
		}
	}
	return count
}
