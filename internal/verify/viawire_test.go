package verify_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/geom"
	"rdlroute/internal/router"
	"rdlroute/internal/verify"
)

// viaWireReference is the via-wire check without the bounding-box reject:
// every via against every other net's wires on the two layers it touches,
// with the distance computed for every pair. Check must report exactly
// these via-wire findings.
func viaWireReference(d *design.Design, routes []*detail.Route) []verify.Problem {
	layerLines := make(map[int][]detail.RouteOnLayer)
	var out []verify.Problem
	for _, rt := range routes {
		if rt == nil {
			continue
		}
		for _, v := range rt.Vias {
			for _, layer := range []int{v.Layer, v.Layer + 1} {
				lines, ok := layerLines[layer]
				if !ok {
					lines = detail.SegmentsOnLayer(routes, layer)
					layerLines[layer] = lines
				}
				for _, rl := range lines {
					if d.SameGroup(rl.Net, rt.Net) {
						continue
					}
					limit := d.Rules.ViaWireClearance(d.WidthOf(rl.Net))
					dd, _ := rl.Pl.DistToPoint(v.Pos)
					if dd < limit-geom.Eps {
						out = append(out, verify.Problem{
							Kind: verify.ViaWireSpacing, Net: rt.Net, Other: rl.Net, Where: v.Pos,
							Msg: fmt.Sprintf("wire %.2f µm from via, need %.2f", dd, limit),
						})
					}
				}
			}
		}
	}
	verify.SortProblems(out)
	return out
}

// viaWireFindings returns the report's via-wire findings in report order.
func viaWireFindings(rep *verify.Report) []verify.Problem {
	var out []verify.Problem
	for _, p := range rep.Problems {
		if p.Kind == verify.ViaWireSpacing {
			out = append(out, p)
		}
	}
	return out
}

// checkAgainstReference compares Check's via-wire findings with the
// all-pairs reference at one and four workers and returns their count.
func checkAgainstReference(t *testing.T, name string, d *design.Design, routes []*detail.Route) int {
	t.Helper()
	want := viaWireReference(d, routes)
	for _, w := range []int{1, 4} {
		got := viaWireFindings(verify.Check(d, routes, verify.Options{Workers: w}))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s, %d workers: %d via-wire findings, the all-pairs reference %d:\ngot  %v\nwant %v",
				name, w, len(got), len(want), got, want)
		}
	}
	return len(want)
}

// TestViaWireMatchesReferenceDense checks the pruned via-wire unit against
// the all-pairs reference on routed dense1–5. dense5 has three via-wire
// findings, so the comparison covers real findings as well as their
// absence.
func TestViaWireMatchesReferenceDense(t *testing.T) {
	wantCount := map[string]int{"dense5": 3}
	for _, name := range design.DenseNames() {
		if testing.Short() && (name == "dense4" || name == "dense5") {
			continue
		}
		d, err := design.GenerateDense(name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := router.Route(context.Background(), d, router.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if n := checkAgainstReference(t, name, d, out.DetailResult.Routes); n != wantCount[name] {
			t.Errorf("%s: %d via-wire findings, want %d", name, n, wantCount[name])
		}
	}
}

// TestViaWireMatchesReferenceRandom is the same comparison on routed
// randomized designs.
func TestViaWireMatchesReferenceRandom(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 42}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		d, routes := routedRandom(t, seed)
		checkAgainstReference(t, fmt.Sprintf("seed %d", seed), d, routes)
	}
}

// TestViaWireBoxEdges places vias of one net just inside and just outside
// the bounding box of another net's wire, grown by the via-wire limit, on
// each of its four sides. A via just inside the grown box opposite a wire
// end is a finding; one just outside is not, and the box reject may skip
// it. Both must match the reference, on a layer the design has and on one
// it does not (a malformed route).
func TestViaWireBoxEdges(t *testing.T) {
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	if d.SameGroup(0, 1) {
		t.Fatal("nets 0 and 1 share a group")
	}
	limit := d.Rules.ViaWireClearance(d.WidthOf(0))
	const eps = 1e-6
	inside := []geom.Point{
		geom.Pt(100-limit+eps, 100), // left of the first end
		geom.Pt(200+limit-eps, 300), // right of the last end
		geom.Pt(150, 100-limit+eps), // below the first leg
		geom.Pt(200, 300+limit-eps), // above the last end
	}
	outside := []geom.Point{
		geom.Pt(100-limit-eps, 100),
		geom.Pt(200+limit+eps, 300),
		geom.Pt(150, 100-limit-eps),
		geom.Pt(200, 300+limit+eps),
	}
	for _, layer := range []int{0, d.WireLayers} {
		// Net 0's wire: an L with its box from (100, 100) to (200, 300);
		// its ends (100, 100) and (200, 300) sit on the box edges. Net 1's
		// vias sit on via layer `layer`, which touches the wire's layer.
		wire := &detail.Route{Net: 0, Segs: []detail.RouteSeg{{Layer: layer,
			Pl: geom.Polyline{geom.Pt(100, 100), geom.Pt(200, 100), geom.Pt(200, 300)}}}}
		vias := &detail.Route{Net: 1}
		for _, p := range append(append([]geom.Point{}, inside...), outside...) {
			vias.Vias = append(vias.Vias, detail.ViaUse{Pos: p, Layer: layer})
		}
		routes := []*detail.Route{wire, vias}

		name := fmt.Sprintf("box edges on layer %d", layer)
		checkAgainstReference(t, name, d, routes)
		found := make(map[geom.Point]bool)
		for _, p := range viaWireFindings(verify.Check(d, routes, verify.Options{Workers: 1})) {
			found[p.Where] = true
		}
		for _, p := range inside {
			if !found[p] {
				t.Errorf("%s: via %v, just inside the grown box, is not a finding", name, p)
			}
		}
		for _, p := range outside {
			if found[p] {
				t.Errorf("%s: via %v, just outside the grown box, is a finding", name, p)
			}
		}
	}
}
