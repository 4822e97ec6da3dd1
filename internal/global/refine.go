package global

import (
	"context"

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
	// The clean-edge cache assumes every usage change since an edge was
	// proven clean went through commit/ripUp stamping. That holds inside
	// this loop, but not necessarily for whatever ran before the call, so
	// start from a cold cache: iteration 1 scans everything once and the
	// remaining iterations — the expensive part on violation-heavy designs —
	// rescan only what their reroutes touched.
	for i := range r.diagCheckedAt {
		r.diagCheckedAt[i] = 0
	}
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
//
// The scan is incremental across refinement iterations: the Eq. 3 predicate
// of an edge depends only on its edge node's usage and its two wrapping
// cross-tile link usages, all of which are stamped with the change clock on
// every commit and rip-up. An edge proven clean at clock t stays clean until
// one of those three stamps moves past t, so each iteration after the first
// re-evaluates only the edges the previous reroutes actually touched.
func (r *Router) findDiagonalViolation() rgraph.NodeID {
	pitch := r.G.Design.Rules.Pitch()
	now := r.clock
	for li := range r.G.Layers {
		lg := &r.G.Layers[li]
		for ei, e := range lg.Mesh.Edges() {
			tris := lg.Mesh.EdgeTris(ei)
			if tris[1] == -1 {
				continue // hull edge: only one tile, no diagonal
			}
			en := lg.EdgeNode[ei]
			vi, okI := lg.Mesh.OppositeVertex(tris[0], e)
			vj, okJ := lg.Mesh.OppositeVertex(tris[1], e)
			if !okI || !okJ {
				continue
			}
			l1 := r.cornerLink(li, tris[0], vi)
			l2 := r.cornerLink(li, tris[1], vj)
			if chk := r.diagCheckedAt[en]; chk > 0 && r.nodeStamp[en] <= chk &&
				(l1 == -1 || r.linkStamp[l1] <= chk) &&
				(l2 == -1 || r.linkStamp[l2] <= chk) {
				continue // unchanged since last proven clean
			}
			u1, u2 := 0, 0
			if l1 != -1 {
				u1 = r.linkUse[l1]
			}
			if l2 != -1 {
				u2 = r.linkUse[l2]
			}
			upsilon := r.nodeUse[en]
			if upsilon == 0 && u1 == 0 && u2 == 0 {
				r.diagCheckedAt[en] = now
				continue
			}
			d := lg.Mesh.Points[vi].Dist(lg.Mesh.Points[vj])
			if float64(u1+u2+upsilon+1)*pitch >= d {
				return en
			}
			r.diagCheckedAt[en] = now
		}
	}
	return rgraph.Invalid
}

// cornerLink returns the cross-tile link wrapping mesh vertex v in triangle
// tri of layer li, or -1.
func (r *Router) cornerLink(li, tri, v int) int {
	tile := r.G.TileOf(li, tri)
	ord := vertexOrdinal(tile, v)
	if ord == -1 {
		return -1
	}
	return tile.CrossLinks[ord]
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
	pitch := r.G.Design.Rules.Pitch()
	for li := range r.G.Layers {
		lg := &r.G.Layers[li]
		for ei, e := range lg.Mesh.Edges() {
			tris := lg.Mesh.EdgeTris(ei)
			if tris[1] == -1 {
				continue
			}
			en := lg.EdgeNode[ei]
			vi, okI := lg.Mesh.OppositeVertex(tris[0], e)
			vj, okJ := lg.Mesh.OppositeVertex(tris[1], e)
			if !okI || !okJ {
				continue
			}
			u1 := r.cornerUse(li, tris[0], vi)
			u2 := r.cornerUse(li, tris[1], vj)
			upsilon := r.nodeUse[en]
			if upsilon == 0 && u1 == 0 && u2 == 0 {
				continue
			}
			d := lg.Mesh.Points[vi].Dist(lg.Mesh.Points[vj])
			if float64(u1+u2+upsilon+1)*pitch >= d {
				count++
			}
		}
	}
	return count
}
