package detail

import (
	"math"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// Post-assembly polishing. The graph sometimes forces a guide to touch a
// tile edge and bounce back (the corner-exit pattern v → edge → adjacent
// edge), and the tangent construction can leave micro-jogs. Both appear in
// the final geometry as interior vertices with reflex turns or as turn
// pairs closer than the minimum turn-to-turn distance w_x. Removing such a
// vertex replaces two segments by their chord. When another net refuses
// both chords of a close turn pair, the pair merges into one vertex where
// its outer legs meet, which lengthens those legs. Either edit may cut
// into another net's clearance, so each is validated against the current
// geometry of all other nets before it is accepted.

// spikeTurn is the turn angle above which an interior vertex is treated as
// a spike/jog artifact rather than a deliberate detour apex (tangent detour
// apexes stay well below 90°).
const spikeTurn = 91 * math.Pi / 180

// polisher validates vertex removals and pair merges with the legality
// index's relaxed query against the evolving geometry of all routes. The
// polyline and blocked-vertex buffers are scratches reused across every
// polished segment of a run; pairsMerged counts the merges it accepted.
type polisher struct {
	*legalIndex
	plBuf       geom.Polyline
	blockedBuf  []geom.Point
	pairsMerged int
}

// polishPolyline removes spike vertices and merges turn pairs closer than
// w_x, iterating both passes to a fixpoint. Every edit is validated
// against the index's current geometry. The input polyline is never
// modified: when nothing changes it is returned as-is, otherwise a fresh
// exact-size polyline comes back — all intermediate work happens in p's
// scratch buffers. Every edit drops one vertex, so "changed" is exactly
// "len differs".
func (p *polisher) polishPolyline(in geom.Polyline, layer, net int) geom.Polyline {
	pl := append(p.plBuf[:0], in...)
	blocked := p.blockedBuf[:0]
	pl = pl.SimplifyInPlace()
	accept := func(i int) bool {
		return p.legal(geom.Seg(pl[i-1], pl[i+1]), layer, net, true,
			geom.Seg(pl[i-1], pl[i]), geom.Seg(pl[i], pl[i+1]))
	}
	isBlocked := func(pt geom.Point) bool {
		for _, b := range blocked {
			if b == pt {
				return true
			}
		}
		return false
	}
	minTurnDist := p.d.Rules.MinTurnDist
	for rounds := 0; rounds < 128; rounds++ {
		changed := false
		// Drop reflex spikes.
		for i := 1; i+1 < len(pl); i++ {
			if isBlocked(pl[i]) {
				continue
			}
			if geom.TurnAngle(pl[i-1], pl[i], pl[i+1]) > spikeTurn {
				if !accept(i) {
					blocked = append(blocked, pl[i])
					continue
				}
				pl = append(pl[:i], pl[i+1:]...)
				changed = true
				break
			}
		}
		if !changed {
			// Merge successive turns violating the w_x rule: drop the
			// vertex with the smaller turn (the gentler kink loses less
			// shape), else the other one, else move the pair to where its
			// outer legs meet.
			for i := 1; i+2 < len(pl); i++ {
				if pl[i].Dist(pl[i+1]) >= minTurnDist {
					continue
				}
				order := [2]int{i, i + 1}
				if geom.TurnAngle(pl[i], pl[i+1], pl[i+2]) < geom.TurnAngle(pl[i-1], pl[i], pl[i+1]) {
					order = [2]int{i + 1, i}
				}
				drop := -1
				for _, v := range order {
					if isBlocked(pl[v]) {
						continue
					}
					if accept(v) {
						drop = v
						break
					}
					blocked = append(blocked, pl[v])
				}
				if drop < 0 {
					x, ok := p.mergePair(pl, i, layer, net)
					if !ok {
						continue
					}
					pl[i], drop = x, i+1
					p.pairsMerged++
				}
				pl = append(pl[:drop], pl[drop+1:]...)
				changed = true
				break
			}
		}
		if !changed {
			break
		}
	}
	pl = pl.SimplifyInPlace()
	p.plBuf = pl[:0]
	p.blockedBuf = blocked[:0]
	if len(pl) == len(in) {
		return in
	}
	out := make(geom.Polyline, len(pl))
	copy(out, pl)
	return out
}

// mergePair returns X, the point where the outer legs pl[i-1]→pl[i] and
// pl[i+2]→pl[i+1] of the close turn pair pl[i], pl[i+1] meet, and whether
// the pair may move there. X must lie ahead on both legs (on the ray from
// pl[i-1] through pl[i], and on the one from pl[i+2] through pl[i+1]), so
// the outer turns keep their angles; lie within 4·w_x of both old
// vertices; turn by at most 90°; and both new legs must pass the relaxed
// legality query against the segments they replace.
//
//rdl:noalloc
func (p *polisher) mergePair(pl geom.Polyline, i, layer, net int) (geom.Point, bool) {
	a, b, c, e := pl[i-1], pl[i], pl[i+1], pl[i+2]
	x, ok := geom.LineThrough(a, b).Intersect(geom.LineThrough(e, c))
	reach := 4 * p.d.Rules.MinTurnDist
	if !ok || x.Sub(a).Dot(b.Sub(a)) <= 0 || x.Sub(e).Dot(c.Sub(e)) <= 0 ||
		x.Dist(b) > reach || x.Dist(c) > reach || geom.TurnAngle(a, x, e) > math.Pi/2 {
		return x, false
	}
	mid := geom.Seg(b, c)
	return x, p.legal(geom.Seg(a, x), layer, net, true, geom.Seg(a, b), mid) &&
		p.legal(geom.Seg(x, e), layer, net, true, mid, geom.Seg(c, e))
}

// PolishStats summarizes one polish pass.
type PolishStats struct {
	// Wirelength is the total over all routes after polishing.
	Wirelength float64
	// PolylinesChanged counts the polylines polish edited, and
	// LayerRebuilds the legality-index layer rebuilds their updates caused.
	PolylinesChanged, LayerRebuilds int
	// PairsMerged counts the close turn pairs moved to their outer legs'
	// meeting point because both single-vertex removals were refused.
	PairsMerged int
}

// PolishRoutes cleans every route in place, validating each edit against
// all other nets' current geometry and the design's keep-outs, and returns
// the pass statistics.
func PolishRoutes(routes []*Route, d *design.Design) PolishStats {
	var st PolishStats
	p := &polisher{legalIndex: newLegalIndex(routes, d)}
	for _, rt := range routes {
		if rt == nil {
			continue
		}
		for i := range rt.Segs {
			old := rt.Segs[i].Pl
			cleaned := p.polishPolyline(old, rt.Segs[i].Layer, rt.Net)
			if len(cleaned) != len(old) {
				rt.Segs[i].Pl = cleaned
				st.PolylinesChanged++
				if p.replace(routes, rt.Segs[i].Layer, rt.Net, old, cleaned) {
					st.LayerRebuilds++
				}
			}
		}
	}
	st.PairsMerged = p.pairsMerged
	for _, rt := range routes {
		if rt != nil {
			st.Wirelength += rt.Wirelength()
		}
	}
	return st
}
