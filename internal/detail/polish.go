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
// vertex replaces two segments by their chord, which by the triangle
// inequality only shortens the wire — but the chord may cut into another
// net's clearance, so every removal is validated against the current
// geometry of all other nets before it is accepted.

// spikeTurn is the turn angle above which an interior vertex is treated as
// a spike/jog artifact rather than a deliberate detour apex (tangent detour
// apexes stay well below 90°).
const spikeTurn = 91 * math.Pi / 180

// polisher validates vertex removals with the legality index's relaxed
// query against the evolving geometry of all routes. The polyline and
// blocked-vertex buffers are scratches reused across every polished
// segment of a run.
type polisher struct {
	*legalIndex
	plBuf      geom.Polyline
	blockedBuf []geom.Point
}

// polishPolyline removes spike vertices and merges turn pairs closer than
// w_x, iterating both passes to a fixpoint. Every removal is validated
// against the index's current geometry. The input polyline is never
// modified: when nothing changes it is returned as-is, otherwise a fresh
// exact-size polyline comes back — all intermediate work happens in p's
// scratch buffers. Removal can only shorten the polyline, so "changed" is
// exactly "len differs".
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
			// shape).
			for i := 1; i+2 < len(pl); i++ {
				if pl[i].Dist(pl[i+1]) >= minTurnDist {
					continue
				}
				t1 := geom.TurnAngle(pl[i-1], pl[i], pl[i+1])
				t2 := geom.TurnAngle(pl[i], pl[i+1], pl[min(i+2, len(pl)-1)])
				drop := i
				if t2 < t1 {
					drop = i + 1
				}
				if isBlocked(pl[drop]) {
					continue
				}
				if !accept(drop) {
					blocked = append(blocked, pl[drop])
					continue
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

// PolishStats summarizes one polish pass.
type PolishStats struct {
	// Wirelength is the total over all routes after polishing.
	Wirelength float64
	// PolylinesChanged counts the polylines polish shortened, and
	// LayerRebuilds the legality-index layer rebuilds their updates caused.
	PolylinesChanged, LayerRebuilds int
}

// PolishRoutes cleans every route in place, validating each vertex removal
// against all other nets' current geometry and the design's keep-outs, and
// returns the pass statistics.
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
	for _, rt := range routes {
		if rt != nil {
			st.Wirelength += rt.Wirelength()
		}
	}
	return st
}
