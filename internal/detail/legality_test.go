package detail

import (
	"math"
	"slices"
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

// refill rebuilds bl as the view of one layer, reusing its buffers.
func (bl *bruteLayer) refill(routes []*Route, layer int) {
	bl.wires, bl.vias = bl.wires[:0], bl.vias[:0]
	for _, rt := range routes {
		if rt == nil {
			continue
		}
		for _, s := range rt.Segs {
			if s.Layer != layer {
				continue
			}
			for i := 1; i < len(s.Pl); i++ {
				bl.wires = append(bl.wires, netSeg{rt.Net, geom.Seg(s.Pl[i-1], s.Pl[i])})
			}
		}
		for _, v := range rt.Vias {
			if v.Layer == layer || v.Layer+1 == layer {
				bl.vias = append(bl.vias, netVia{rt.Net, v.Pos})
			}
		}
	}
}

func bruteLayers(routes []*Route, layers int) []bruteLayer {
	out := make([]bruteLayer, layers)
	for l := range out {
		out[l].refill(routes, l)
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

// compareQueries puts the strict query of every segment and the relaxed
// query of every interior vertex's chord of pl to the index and to the full
// scan of bl, fails on the first disagreement, and returns the query and
// veto counts.
func compareQueries(t *testing.T, name string, d *design.Design, x *legalIndex, bl bruteLayer,
	pl geom.Polyline, layer, net int) (segs, chords, strictVetoes, relaxedVetoes int) {
	t.Helper()
	for i := 1; i < len(pl); i++ {
		s := geom.Seg(pl[i-1], pl[i])
		got := x.legal(s, layer, net, false, geom.Segment{}, geom.Segment{})
		want := bruteLegal(d, bl, s, layer, net, false, geom.Segment{}, geom.Segment{})
		if got != want {
			t.Fatalf("%s: net %d layer %d segment %v: strict index %v, full scan %v",
				name, net, layer, s, got, want)
		}
		segs++
		if !got {
			strictVetoes++
		}
	}
	for i := 1; i+1 < len(pl); i++ {
		chord := geom.Seg(pl[i-1], pl[i+1])
		o1, o2 := geom.Seg(pl[i-1], pl[i]), geom.Seg(pl[i], pl[i+1])
		got := x.legal(chord, layer, net, true, o1, o2)
		want := bruteLegal(d, bl, chord, layer, net, true, o1, o2)
		if got != want {
			t.Fatalf("%s: net %d layer %d chord at %v: relaxed index %v, full scan %v",
				name, net, layer, pl[i], got, want)
		}
		chords++
		if !got {
			relaxedVetoes++
		}
	}
	return segs, chords, strictVetoes, relaxedVetoes
}

// cloneRoutes copies routes deep enough that replacing a polyline of the
// copy leaves the original alone.
func cloneRoutes(routes []*Route) []*Route {
	out := make([]*Route, len(routes))
	for i, rt := range routes {
		if rt != nil {
			c := *rt
			c.Segs = slices.Clone(rt.Segs)
			out[i] = &c
		}
	}
	return out
}

// TestLegalIndexMatchesBruteForce pins the claim polish and reassignment
// both rely on: the ±1-cell walk under indexCell sees every wire and via
// that can veto a segment. On the final routes of every dense case, each
// route segment gets the strict query and each interior vertex's chord
// the relaxed one, and every verdict must equal the full scan's.
//
// It then checks the in-place update polish uses. Walking the polylines in
// route order, it drops the middle vertex of each one that has an interior
// vertex and hands the change to replace. After each replace, every query
// of the next polyline must equal the full scan of the live routes. The
// walk must rebuild a layer at least once and must query a layer while its
// tail is non-empty.
func TestLegalIndexMatchesBruteForce(t *testing.T) {
	cases := design.DenseNames()
	if testing.Short() {
		cases = cases[:2]
	}
	var strictBlocked, relaxedBlocked, rebuilds, tailQueries int
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
				ns, nc, nsb, nrb := compareQueries(t, name, d, x, bl[rs.Layer], rs.Pl, rs.Layer, rt.Net)
				segs, chords, sb, rb = segs+ns, chords+nc, sb+nsb, rb+nrb
			}
		}
		t.Logf("%s: %d segments (%d strict-blocked), %d chords (%d relaxed-blocked) agree",
			name, segs, sb, chords, rb)
		strictBlocked += sb
		relaxedBlocked += rb

		nr, nq := checkInPlaceWalk(t, name, d, cloneRoutes(routes))
		rebuilds += nr
		tailQueries += nq
	}
	if strictBlocked == 0 || relaxedBlocked == 0 {
		t.Errorf("no vetoes to compare (strict %d, relaxed %d): the differential is vacuous",
			strictBlocked, relaxedBlocked)
	}
	if rebuilds == 0 || tailQueries == 0 {
		t.Errorf("the in-place walk made %d rebuilds and %d queries beside a tail; it must make both",
			rebuilds, tailQueries)
	}
}

// checkInPlaceWalk runs the in-place walk of TestLegalIndexMatchesBruteForce
// on routes, which it edits, and returns the layer rebuilds replace made and
// the queries it compared while the queried layer had a tail.
func checkInPlaceWalk(t *testing.T, name string, d *design.Design, routes []*Route) (rebuilds, tailQueries int) {
	t.Helper()
	type polyRef struct{ rt, seg int }
	var walk []polyRef
	for ri, rt := range routes {
		if rt == nil {
			continue
		}
		for si := range rt.Segs {
			walk = append(walk, polyRef{ri, si})
		}
	}
	x := newLegalIndex(routes, d)
	var bl bruteLayer
	replaced, queries := 0, 0
	for k, p := range walk {
		rt := routes[p.rt]
		rs := &rt.Segs[p.seg]
		old := rs.Pl
		if len(old) < 3 {
			continue
		}
		rs.Pl = slices.Delete(slices.Clone(old), len(old)/2, len(old)/2+1)
		replaced++
		if x.replace(routes, rs.Layer, rt.Net, old, rs.Pl) {
			rebuilds++
		}
		if k+1 == len(walk) {
			break
		}
		next := routes[walk[k+1].rt]
		ns := next.Segs[walk[k+1].seg]
		bl.refill(routes, ns.Layer)
		segs, chords, _, _ := compareQueries(t, name, d, x, bl, ns.Pl, ns.Layer, next.Net)
		queries += segs + chords
		if len(x.segs[ns.Layer]) > x.segGrids[ns.Layer].n {
			tailQueries += segs + chords
		}
	}
	t.Logf("%s: in place, %d polylines replaced, %d layer rebuilds, %d queries agree (%d beside a tail)",
		name, replaced, rebuilds, queries, tailQueries)
	return rebuilds, tailQueries
}

// TestReplaceDoesNotAllocate pins that a warm replace, the in-place update
// polish makes per changed polyline, allocates nothing, its layer rebuilds
// included: newLegalIndex sizes every view for the longest tail.
func TestReplaceDoesNotAllocate(t *testing.T) {
	d, routes := routedCase(t, "dense1")
	routes = cloneRoutes(routes)
	// Replace the longest polyline by itself: it fills the tail fastest.
	var rt *Route
	var seg int
	for _, r := range routes {
		if r == nil {
			continue
		}
		for i, s := range r.Segs {
			if rt == nil || len(s.Pl) > len(rt.Segs[seg].Pl) {
				rt, seg = r, i
			}
		}
	}
	x := newLegalIndex(routes, d)
	pl := rt.Segs[seg].Pl
	rebuilt := false
	step := func() {
		if x.replace(routes, rt.Segs[seg].Layer, rt.Net, pl, pl) {
			rebuilt = true
		}
	}
	for !rebuilt { // warm up through one rebuild
		step()
	}
	rebuilt = false
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("warm replace allocated %.2f allocs/run, want 0", allocs)
	}
	if !rebuilt {
		t.Fatal("no rebuild inside the measured runs; the check covers only the tail path")
	}
}
