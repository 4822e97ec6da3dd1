package detail

import (
	"math"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// bruteLayer is the index's per-layer view rebuilt from the routes without
// any grid: every wire and every via touching each layer.
type bruteLayer struct {
	wires []netSeg
	vias  []netVia
}

func bruteLayers(routes []*Route, layers int) []bruteLayer {
	out := make([]bruteLayer, layers)
	for _, rt := range routes {
		if rt == nil {
			continue
		}
		for _, s := range rt.Segs {
			for i := 1; i < len(s.Pl); i++ {
				out[s.Layer].wires = append(out[s.Layer].wires, netSeg{rt.Net, geom.Seg(s.Pl[i-1], s.Pl[i])})
			}
		}
		for _, v := range rt.Vias {
			out[v.Layer].vias = append(out[v.Layer].vias, netVia{rt.Net, v.Pos})
			out[v.Layer+1].vias = append(out[v.Layer+1].vias, netVia{rt.Net, v.Pos})
		}
	}
	return out
}

// apart reports whether the bounding boxes of a and b are at least lim
// apart along some axis: a cheap proof that the segments are too, which
// keeps the full scan fast without consulting any grid.
func apart(a, b geom.Segment, lim float64) bool {
	return math.Min(a.A.X, a.B.X)-math.Max(b.A.X, b.B.X) >= lim ||
		math.Min(b.A.X, b.B.X)-math.Max(a.A.X, a.B.X) >= lim ||
		math.Min(a.A.Y, a.B.Y)-math.Max(b.A.Y, b.B.Y) >= lim ||
		math.Min(b.A.Y, b.B.Y)-math.Max(a.A.Y, a.B.Y) >= lim
}

// bruteLegal is legalIndex.legal by full scan: the same three rules in
// the same order, over every wire and via of the layer.
func bruteLegal(d *design.Design, bl bruteLayer, s geom.Segment, layer, net int,
	relaxed bool, o1, o2 geom.Segment) bool {
	const eps = 1e-9
	if d.SegmentBlocked(s, layer, 0) {
		return false
	}
	for _, e := range bl.wires {
		limit := d.Clearance(net, e.net)
		if apart(s, e.seg, limit) || d.SameGroup(e.net, net) {
			continue
		}
		dist, _, _ := s.DistToSegment(e.seg)
		if dist >= limit-eps {
			continue
		}
		if !relaxed {
			return false
		}
		d1, _, _ := o1.DistToSegment(e.seg)
		d2, _, _ := o2.DistToSegment(e.seg)
		if dist < math.Min(d1, d2)-eps {
			return false
		}
	}
	limit := d.Rules.ViaWidth/2 + d.Rules.MinSpacing + d.WidthOf(net)/2
	for _, v := range bl.vias {
		if apart(s, geom.Seg(v.pos, v.pos), limit) || d.SameGroup(v.net, net) {
			continue
		}
		dist := s.DistToPoint(v.pos)
		if dist >= limit-eps {
			continue
		}
		if !relaxed || dist < math.Min(o1.DistToPoint(v.pos), o2.DistToPoint(v.pos))-eps {
			return false
		}
	}
	return true
}

// TestLegalIndexMatchesBruteForce pins the claim polish and reassignment
// both rely on: the ±1-cell walk under indexCell sees every wire and via
// that can veto a segment. On the final routes of every dense case, each
// route segment gets the strict query and each interior vertex's chord
// the relaxed one, and every verdict must equal the full scan's.
func TestLegalIndexMatchesBruteForce(t *testing.T) {
	cases := design.DenseNames()
	if testing.Short() {
		cases = cases[:2]
	}
	var strictBlocked, relaxedBlocked int
	for _, name := range cases {
		d, routes := routedCase(t, name)
		x := newLegalIndex(routes, d)
		bl := bruteLayers(routes, d.WireLayers)
		var segs, chords, sb, rb int
		for _, rt := range routes {
			if rt == nil {
				continue
			}
			for _, rs := range rt.Segs {
				pl, layer := rs.Pl, rs.Layer
				for i := 1; i < len(pl); i++ {
					s := geom.Seg(pl[i-1], pl[i])
					got := x.legal(s, layer, rt.Net, false, geom.Segment{}, geom.Segment{})
					want := bruteLegal(d, bl[layer], s, layer, rt.Net, false, geom.Segment{}, geom.Segment{})
					if got != want {
						t.Fatalf("%s: net %d layer %d segment %v: strict index %v, full scan %v",
							name, rt.Net, layer, s, got, want)
					}
					segs++
					if !got {
						sb++
					}
				}
				for i := 1; i+1 < len(pl); i++ {
					chord := geom.Seg(pl[i-1], pl[i+1])
					o1, o2 := geom.Seg(pl[i-1], pl[i]), geom.Seg(pl[i], pl[i+1])
					got := x.legal(chord, layer, rt.Net, true, o1, o2)
					want := bruteLegal(d, bl[layer], chord, layer, rt.Net, true, o1, o2)
					if got != want {
						t.Fatalf("%s: net %d layer %d chord at %v: relaxed index %v, full scan %v",
							name, rt.Net, layer, pl[i], got, want)
					}
					chords++
					if !got {
						rb++
					}
				}
			}
		}
		t.Logf("%s: %d segments (%d strict-blocked), %d chords (%d relaxed-blocked) agree",
			name, segs, sb, chords, rb)
		strictBlocked += sb
		relaxedBlocked += rb
	}
	if strictBlocked == 0 || relaxedBlocked == 0 {
		t.Errorf("no vetoes to compare (strict %d, relaxed %d): the differential is vacuous",
			strictBlocked, relaxedBlocked)
	}
}
