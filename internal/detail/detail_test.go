package detail

import (
	"context"
	"math"
	"reflect"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/global"
	"rdlroute/internal/obs"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/viaplan"
)

// pipeline assembles the full routing stack for a benchmark design.
func pipeline(t testing.TB, name string, dopt Options) (*global.Router, *global.Result, *Result) {
	t.Helper()
	d, err := design.GenerateDense(name)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := viaplan.Build(d, viaplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := rgraph.Build(d, plan, rgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := global.New(g, global.Options{})
	gres, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dres, err := Run(context.Background(), r, gres, dopt)
	if err != nil {
		t.Fatal(err)
	}
	return r, gres, dres
}

func TestDense1EndToEnd(t *testing.T) {
	r, gres, dres := pipeline(t, "dense1", Options{})
	if gres.Routability() != 1 {
		t.Fatalf("routability = %v", gres.Routability())
	}
	if dres.Wirelength <= 0 {
		t.Fatal("no wirelength")
	}
	d := r.G.Design
	for ni, rt := range dres.Routes {
		if rt == nil {
			t.Fatalf("net %d has no route", ni)
		}
		// Every route starts and ends at its pins.
		net := d.Nets[ni]
		a, b := d.PinPos(net)
		first := rt.Segs[0].Pl[0]
		lastSeg := rt.Segs[len(rt.Segs)-1].Pl
		last := lastSeg[len(lastSeg)-1]
		if !first.ApproxEq(a) {
			t.Errorf("net %d starts at %v, want %v", ni, first, a)
		}
		if !last.ApproxEq(b) {
			t.Errorf("net %d ends at %v, want %v", ni, last, b)
		}
		// Route length is at least the pin-to-pin distance when single-layer
		// and single-segment (the general lower bound needs via hops, so
		// only check the direct case).
		if len(rt.Segs) == 1 && rt.Segs[0].Pl.Length() < a.Dist(b)-1e-6 {
			t.Errorf("net %d shorter than its pin distance", ni)
		}
	}
}

// TestDetailSubSpans pins the detail stage's span layout: every phase of
// Run sits in its own sub-span, in pipeline order, and the reassignment
// span is absent when the pass is skipped.
func TestDetailSubSpans(t *testing.T) {
	for _, skip := range []bool{false, true} {
		col := obs.NewCollector()
		pipeline(t, "dense1", Options{Rec: col, SkipReassign: skip})
		want := []string{"detail", "detail.adjust", "detail.fit", "detail.assemble", "detail.reassign", "detail.polish"}
		if skip {
			want = []string{"detail", "detail.adjust", "detail.fit", "detail.assemble", "detail.polish"}
		}
		if got := col.StageOrder(); !reflect.DeepEqual(got, want) {
			t.Errorf("SkipReassign=%v: spans %v, want %v", skip, got, want)
		}
	}
}

func TestRouteLayersMatchVias(t *testing.T) {
	_, _, dres := pipeline(t, "dense3", Options{})
	multi := 0
	for _, rt := range dres.Routes {
		if rt == nil {
			continue
		}
		if len(rt.Segs) != len(rt.Vias)+1 {
			t.Fatalf("net %d: %d segments with %d vias", rt.Net, len(rt.Segs), len(rt.Vias))
		}
		if len(rt.Vias) > 0 {
			multi++
			if len(rt.Vias)%2 != 0 {
				t.Errorf("net %d uses %d vias; pins are both on layer 0 so via count must be even",
					rt.Net, len(rt.Vias))
			}
		}
	}
	if multi == 0 {
		t.Error("no net used vias; crossing pad pattern should force layer changes")
	}
}

func TestAdjustmentReducesWirelength(t *testing.T) {
	_, _, with := pipeline(t, "dense1", Options{})
	_, _, without := pipeline(t, "dense1", Options{SkipAdjust: true})
	if with.AdjustedPartialNets == 0 {
		t.Fatal("no partial nets processed")
	}
	if without.AdjustedPartialNets != 0 {
		t.Fatal("SkipAdjust did not skip")
	}
	if with.Wirelength >= without.Wirelength {
		t.Errorf("DP adjustment did not help: %v (with) vs %v (without)",
			with.Wirelength, without.Wirelength)
	}
	t.Logf("wirelength with adjustment %.0f, without %.0f (%.1f%% gain)",
		with.Wirelength, without.Wirelength,
		100*(without.Wirelength-with.Wirelength)/without.Wirelength)
}

func TestDRCQuality(t *testing.T) {
	for _, name := range []string{"dense1", "dense2"} {
		r, _, dres := pipeline(t, name, Options{})
		vs := CheckDRCParallel(dres.Routes, r.G.Design, DRCOptions{})
		var spacing, angle, turn int
		for _, v := range vs {
			switch v.Kind {
			case SpacingViolation:
				spacing++
			case AngleViolation:
				angle++
			default:
				turn++
			}
		}
		// Count total segments as the denominator for the quality bar.
		segs := 0
		for _, rt := range dres.Routes {
			if rt == nil {
				continue
			}
			for _, s := range rt.Segs {
				segs += len(s.Pl) - 1
			}
		}
		// Clearance-aware polish refuses removals that would cut into
		// another net's wires or vias, so a handful of residual kinks are
		// legitimate; the bars keep each class below a small fraction of
		// all segments.
		if turn > segs/50 {
			t.Errorf("%s: %d turn-distance violations over %d segments", name, turn, segs)
		}
		if angle > segs/100 {
			t.Errorf("%s: %d angle violations over %d segments", name, angle, segs)
		}
		if spacing > segs/20 {
			t.Errorf("%s: %d spacing violations over %d segments", name, spacing, segs)
		}
		t.Logf("%s: %d segments, %d spacing / %d angle / %d turn violations",
			name, segs, spacing, angle, turn)
	}
}

func TestRoutesContinuous(t *testing.T) {
	_, _, dres := pipeline(t, "dense2", Options{})
	for _, rt := range dres.Routes {
		if rt == nil {
			continue
		}
		for si, s := range rt.Segs {
			if len(s.Pl) < 2 {
				t.Fatalf("net %d segment %d has %d points", rt.Net, si, len(s.Pl))
			}
			for i := 1; i < len(s.Pl); i++ {
				if s.Pl[i].ApproxEq(s.Pl[i-1]) {
					t.Errorf("net %d segment %d has a zero-length edge at %d", rt.Net, si, i)
				}
			}
		}
		// Consecutive segments are joined by a via at matching position.
		for vi, v := range rt.Vias {
			endOfPrev := rt.Segs[vi].Pl[len(rt.Segs[vi].Pl)-1]
			startOfNext := rt.Segs[vi+1].Pl[0]
			if !endOfPrev.ApproxEq(v.Pos) || !startOfNext.ApproxEq(v.Pos) {
				t.Errorf("net %d via %d not at segment junction", rt.Net, vi)
			}
		}
	}
}

// synthDesign is a default-rules design with one Net per ID 0..nets-1 for
// synthetic routes: out-of-range IDs all share one sentinel group, which
// would disable the spacing rule between them.
func synthDesign(nets, layers int) *design.Design {
	d := &design.Design{Rules: design.DefaultRules(), WireLayers: layers}
	for i := 0; i < nets; i++ {
		d.Nets = append(d.Nets, design.Net{ID: i})
	}
	return d
}

func TestPolishPolyline(t *testing.T) {
	// Polish against an empty index: every removal is accepted.
	d := synthDesign(1, 1)
	rules := d.Rules
	p := &polisher{legalIndex: newLegalIndex(nil, d)}
	// A spike: path doubles back at (10, 0).
	spike := geom.Polyline{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 0.1), geom.Pt(5, 10)}
	out := p.polishPolyline(spike, 0, 0)
	if out.MaxTurnAngle() > spikeTurn {
		t.Errorf("spike survived: %v", out)
	}
	if out.Length() > spike.Length() {
		t.Error("polish lengthened the wire")
	}
	// Turn pair closer than w_x.
	jog := geom.Polyline{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(11, 1), geom.Pt(20, 2)}
	out = p.polishPolyline(jog, 0, 0)
	if d := out.MinTurnSpacing(); d < rules.MinTurnDist && !math.IsInf(d, 1) {
		t.Errorf("turn spacing still %v", d)
	}
	// A clean straight polyline is untouched.
	straight := geom.Polyline{geom.Pt(0, 0), geom.Pt(100, 0)}
	out = p.polishPolyline(straight, 0, 0)
	if len(out) != 2 {
		t.Errorf("straight line modified: %v", out)
	}
}

func TestSegmentsOnLayer(t *testing.T) {
	_, _, dres := pipeline(t, "dense1", Options{})
	l0 := SegmentsOnLayer(dres.Routes, 0)
	if len(l0) == 0 {
		t.Fatal("no layer-0 geometry")
	}
	for i := 1; i < len(l0); i++ {
		if l0[i].Net < l0[i-1].Net {
			t.Fatal("SegmentsOnLayer not sorted by net")
		}
	}
	if out := SegmentsOnLayer(dres.Routes, 99); len(out) != 0 {
		t.Error("nonexistent layer returned geometry")
	}
}

func TestCheckDRCDetectsPlantedViolations(t *testing.T) {
	d := synthDesign(2, 1)
	mk := func(pl geom.Polyline, net int) *Route {
		return &Route{Net: net, Segs: []RouteSeg{{Layer: 0, Pl: pl}}}
	}
	// Two parallel wires 1 µm apart: spacing violation.
	routes := []*Route{
		mk(geom.Polyline{geom.Pt(0, 0), geom.Pt(100, 0)}, 0),
		mk(geom.Polyline{geom.Pt(0, 1), geom.Pt(100, 1)}, 1),
	}
	vs := CheckDRCParallel(routes, d, DRCOptions{Workers: 1})
	if len(vs) == 0 || vs[0].Kind != SpacingViolation {
		t.Fatalf("parallel 1µm wires not flagged: %v", vs)
	}
	// Same net: no violation.
	routes[1].Net = 0
	if vs := CheckDRCParallel(routes, d, DRCOptions{Workers: 1}); len(vs) != 0 {
		t.Errorf("same-net proximity flagged: %v", vs)
	}
	// Sharp angle.
	sharp := []*Route{mk(geom.Polyline{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 1)}, 0)}
	found := false
	for _, v := range CheckDRCParallel(sharp, d, DRCOptions{Workers: 1}) {
		if v.Kind == AngleViolation {
			found = true
		}
	}
	if !found {
		t.Error("sharp turn not flagged")
	}
	// Turn-to-turn too close.
	tight := []*Route{mk(geom.Polyline{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(11, 1), geom.Pt(20, 1)}, 0)}
	found = false
	for _, v := range CheckDRCParallel(tight, d, DRCOptions{Workers: 1}) {
		if v.Kind == TurnDistViolation {
			found = true
		}
	}
	if !found {
		t.Error("tight turn pair not flagged")
	}
}

func TestViolationStrings(t *testing.T) {
	kinds := []ViolationKind{SpacingViolation, AngleViolation, TurnDistViolation}
	for _, k := range kinds {
		v := Violation{Kind: k, NetA: 1, NetB: 2, Value: 1, Limit: 4}
		if v.String() == "" || k.String() == "" {
			t.Error("empty violation string")
		}
	}
}

func TestStraightLength(t *testing.T) {
	r, gres, _ := pipeline(t, "dense1", Options{})
	d := &Detailer{G: r.G, R: r, guides: gres.Guides}
	if err := d.buildChains(gres.Guides); err != nil {
		t.Fatal(err)
	}
	for ni := range d.Chains {
		if d.Chains[ni] == nil {
			continue
		}
		sl := d.StraightLength(ni)
		hp := r.G.Design.NetHPWL(r.G.Design.Nets[ni])
		if sl < hp-1e-6 {
			t.Errorf("net %d straight chain %v below pin distance %v", ni, sl, hp)
		}
	}
	if d.StraightLength(0) <= 0 {
		t.Error("zero straight length")
	}
}
