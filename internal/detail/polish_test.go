package detail

import (
	"slices"
	"testing"

	"rdlroute/internal/geom"
)

// TestPolishMergesRefusedTurnPair builds a two-net fixture in which net 0
// turns twice, 2.2 µm apart (w_x is 4), and net 1's wire ends just inside
// that corner: clear of net 0's wire, but not of either chord that would
// drop one vertex of the pair. Polish must move the pair to the point
// where the outer legs meet, which the wire of net 1 leaves clear, and DRC
// must then find no turn-distance or angle finding on net 0. A pair whose
// other vertex may go loses that vertex instead, and a merge is refused
// when any one of its conditions fails.
func TestPolishMergesRefusedTurnPair(t *testing.T) {
	d := synthDesign(2, 1)
	pl := geom.Polyline{geom.Pt(-40, 0), geom.Pt(0, 0), geom.Pt(1, 2), geom.Pt(11, 32)}
	routes := []*Route{
		{Net: 0, Segs: []RouteSeg{{Layer: 0, Pl: pl}}},
		{Net: 1, Segs: []RouteSeg{{Layer: 0, Pl: geom.Polyline{geom.Pt(-30, 4.5), geom.Pt(-2.5, 4.5)}}}},
	}
	// The premise: both single-vertex chords are refused.
	p := &polisher{legalIndex: newLegalIndex(routes, d)}
	for v := 1; v <= 2; v++ {
		chord := geom.Seg(pl[v-1], pl[v+1])
		if p.legal(chord, 0, 0, true, geom.Seg(pl[v-1], pl[v]), geom.Seg(pl[v], pl[v+1])) {
			t.Fatalf("fixture: dropping vertex %d is legal, want it refused", v)
		}
	}

	st := PolishRoutes(routes, d)
	got := routes[0].Segs[0].Pl
	x := geom.Pt(1.0/3, 0) // y = 0 meets the line through (1, 2) with slope 3
	if len(got) != 3 || got[0] != pl[0] || !got[1].ApproxEq(x) || got[2] != pl[3] {
		t.Fatalf("polished net 0 = %v, want [%v %v %v]", got, pl[0], x, pl[3])
	}
	if st.PairsMerged != 1 || st.PolylinesChanged != 1 {
		t.Errorf("stats = %+v, want one merged pair in one changed polyline", st)
	}
	for _, v := range CheckDRCParallel(routes, d, DRCOptions{Workers: 1}) {
		if v.Kind == TurnDistViolation || v.Kind == AngleViolation {
			t.Errorf("after the merge: %v", v)
		}
	}

	// With net 1's wire higher up, only the chord dropping the gentler
	// vertex (1, 2) is refused: polish drops (0, 0) instead of merging.
	routes[0].Segs[0].Pl = pl
	routes[1].Segs[0].Pl = geom.Polyline{geom.Pt(-2, 6.2), geom.Pt(-12, 9.5)}
	st = PolishRoutes(routes, d)
	want := geom.Polyline{pl[0], pl[2], pl[3]}
	if got := routes[0].Segs[0].Pl; !slices.Equal(got, want) || st.PairsMerged != 0 {
		t.Errorf("polished net 0 = %v with %d merges, want %v with none", got, st.PairsMerged, want)
	}

	t.Run("refusals", testMergePairRefusals)
}

// testMergePairRefusals checks each condition of mergePair alone: in every
// case below the other conditions hold, and the one named fails.
func testMergePairRefusals(t *testing.T) {
	empty := &polisher{legalIndex: newLegalIndex(nil, synthDesign(1, 1))}
	// Accepted: the legs meet at (1/3, 0), ahead on both, 71.6° turn.
	chamfer := geom.Polyline{geom.Pt(-40, 0), geom.Pt(0, 0), geom.Pt(1, 2), geom.Pt(11, 32)}
	if x, ok := empty.mergePair(chamfer, 1, 0, 0); !ok || !x.ApproxEq(geom.Pt(1.0/3, 0)) {
		t.Fatalf("chamfer: mergePair = %v, %v; want (1/3, 0), true", x, ok)
	}

	// A wire of net 1 below the chamfer's corner: 4.3 µm from the old
	// pair, but 3.9 µm from the lengthened legs' meeting point (1.8, 0).
	d := synthDesign(2, 1)
	wide := geom.Polyline{geom.Pt(-40, 0), geom.Pt(0, 0), geom.Pt(2, 2), geom.Pt(5, 32)}
	routes := []*Route{
		{Net: 0, Segs: []RouteSeg{{Layer: 0, Pl: wide}}},
		{Net: 1, Segs: []RouteSeg{{Layer: 0, Pl: geom.Polyline{geom.Pt(1.8, -3.9), geom.Pt(1.8, -20)}}}},
	}
	crowded := &polisher{legalIndex: newLegalIndex(routes, d)}
	if _, ok := empty.mergePair(wide, 1, 0, 0); !ok {
		t.Fatal("wide chamfer refused on an empty board")
	}

	for _, tc := range []struct {
		name string
		p    *polisher
		pl   geom.Polyline
	}{
		// The legs meet at (-1.5, 0), behind (-1, 0) on the first leg; the
		// turn there is 76°.
		{"behind a leg", empty, geom.Polyline{geom.Pt(-1, 0), geom.Pt(0, 0), geom.Pt(-2, 2), geom.Pt(-4, 10)}},
		// An S-jog whose legs meet at (-18, 0), 18 µm from (0, 0): more
		// than 4·w_x = 16.
		{"beyond 4·w_x", empty, geom.Polyline{geom.Pt(-60, 0), geom.Pt(0, 0), geom.Pt(1, 2), geom.Pt(39, 6)}},
		// The legs meet at (5/3, 0), turning 108°.
		{"turn over 90°", empty, geom.Polyline{geom.Pt(-40, 0), geom.Pt(0, 0), geom.Pt(1, 2), geom.Pt(-2, 11)}},
		{"illegal leg", crowded, wide},
	} {
		if x, ok := tc.p.mergePair(tc.pl, 1, 0, 0); ok {
			t.Errorf("%s: mergePair accepted %v", tc.name, x)
		}
	}
}
