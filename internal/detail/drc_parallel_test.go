package detail

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// routedCase routes a dense benchmark once and caches the result so the
// differential tests and the DRC benchmark share one routing run per case.
var routedCase = func() func(tb testing.TB, name string) (*design.Design, []*Route) {
	type entry struct {
		d      *design.Design
		routes []*Route
	}
	var mu sync.Mutex
	cache := map[string]entry{}
	return func(tb testing.TB, name string) (*design.Design, []*Route) {
		tb.Helper()
		mu.Lock()
		defer mu.Unlock()
		if e, ok := cache[name]; ok {
			return e.d, e.routes
		}
		r, _, dres := pipeline(tb, name, Options{})
		e := entry{d: r.G.Design, routes: dres.Routes}
		cache[name] = e
		return e.d, e.routes
	}
}()

// TestDRCWideClearanceRegression pins the spatial-hash soundness fix: the
// cell must be sized from the largest pairwise clearance, not the pitch.
// Net 0 is a 220 µm power rail, so its clearance against a default-width
// net is (220+2)/2 + 2 = 113 µm — more than double the old pitch-derived
// 50 µm cell. Two wires 105 µm apart violate that clearance, but under the
// old sizing they land two grid rows apart, outside the ±1-cell search
// window, and the violation went unreported.
func TestDRCWideClearanceRegression(t *testing.T) {
	d := &design.Design{
		Rules:      design.DefaultRules(),
		WireLayers: 1,
		Nets:       []design.Net{{ID: 0, Width: 220}, {ID: 1}},
	}
	routes := []*Route{
		{Net: 0, Segs: []RouteSeg{{Layer: 0, Pl: geom.Polyline{geom.Pt(0, 0), geom.Pt(400, 0)}}}},
		{Net: 1, Segs: []RouteSeg{{Layer: 0, Pl: geom.Polyline{geom.Pt(0, 105), geom.Pt(400, 105)}}}},
	}
	limit := d.Clearance(0, 1)
	if limit <= 8*d.Rules.Pitch() {
		t.Fatalf("test geometry too narrow: clearance %v must exceed the old 8×pitch cell %v",
			limit, 8*d.Rules.Pitch())
	}

	vs := CheckDRCParallel(routes, d, DRCOptions{Workers: 1})
	if len(vs) != 1 || vs[0].Kind != SpacingViolation {
		t.Fatalf("wide-clearance violation not found: %v", vs)
	}
	if vs[0].Value != 105 || vs[0].Limit != limit {
		t.Errorf("violation = %v, want 105 < %v", vs[0], limit)
	}

	// The engine's cell honours the correctness bound.
	cell := indexCell(d)
	if cell < limit {
		t.Errorf("cell %v below the max pairwise clearance %v", cell, limit)
	}
	l := buildLayer(routes, 0, cell, &gridScratch{})

	// Demonstrate the pre-fix hole: the same scan over a grid with the old
	// pitch-derived cell misses the violation entirely.
	old := newMapGridLayer(l, math.Max(8*d.Rules.Pitch(), 50))
	if got := old.spacingUnit(0, len(old.segs), d.SameGroup, d.Clearance); len(got) != 0 {
		t.Logf("old sizing unexpectedly found %v (geometry no longer demonstrates the hole)", got)
	} else {
		t.Logf("confirmed: pitch-sized cell %v misses the %v-clearance violation", old.cell, limit)
	}
}

// TestDRCSpacingPairDedupe pins the finding-identity fix: findings are
// unique per segment pair, not per float witness point.
func TestDRCSpacingPairDedupe(t *testing.T) {
	d := synthDesign(2, 1)

	// Two distinct net-1 segments both at distance 1 from the same net-0
	// wire, with the identical witness point (3, 0) on it. The old
	// witness-signature dedupe collapsed these to one finding.
	routes := []*Route{
		{Net: 0, Segs: []RouteSeg{{Layer: 0, Pl: geom.Polyline{geom.Pt(0, 0), geom.Pt(10, 0)}}}},
		{Net: 1, Segs: []RouteSeg{
			{Layer: 0, Pl: geom.Polyline{geom.Pt(3, 1), geom.Pt(3, 5)}},
			{Layer: 0, Pl: geom.Polyline{geom.Pt(3, -1), geom.Pt(3, -5)}},
		}},
	}
	var spacing []Violation
	for _, v := range CheckDRCParallel(routes, d, DRCOptions{Workers: 1}) {
		if v.Kind == SpacingViolation {
			spacing = append(spacing, v)
		}
	}
	if len(spacing) != 2 {
		t.Errorf("shared-witness pairs: %d spacing findings, want 2: %v", len(spacing), spacing)
	}

	// The converse: one segment pair running close together through many
	// grid cells is still a single finding.
	long := []*Route{
		{Net: 0, Segs: []RouteSeg{{Layer: 0, Pl: geom.Polyline{geom.Pt(0, 0), geom.Pt(400, 0)}}}},
		{Net: 1, Segs: []RouteSeg{{Layer: 0, Pl: geom.Polyline{geom.Pt(0, 1), geom.Pt(400, 1)}}}},
	}
	spacing = spacing[:0]
	for _, v := range CheckDRCParallel(long, d, DRCOptions{Workers: 1}) {
		if v.Kind == SpacingViolation {
			spacing = append(spacing, v)
		}
	}
	if len(spacing) != 1 {
		t.Errorf("multi-cell pair: %d spacing findings, want 1: %v", len(spacing), spacing)
	}
}

// TestDRCParallelMatchesSerial is the tentpole's differential guarantee:
// for every dense benchmark the parallel checker returns byte-identical
// findings to the serial reference, at every pool size.
func TestDRCParallelMatchesSerial(t *testing.T) {
	cases := design.DenseNames()
	if testing.Short() {
		cases = cases[:2]
	}
	for _, name := range cases {
		d, routes := routedCase(t, name)
		serial := CheckDRCParallel(routes, d, DRCOptions{Workers: 1})
		ref := fmt.Sprintf("%v", serial)
		for _, workers := range []int{2, 3, 4, 8} {
			par := CheckDRCParallel(routes, d, DRCOptions{Workers: workers})
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("%s: %d-worker findings differ from serial (%d vs %d violations)",
					name, workers, len(par), len(serial))
			}
			if got := fmt.Sprintf("%v", par); got != ref {
				t.Fatalf("%s: %d-worker findings not byte-identical to serial", name, workers)
			}
		}
		t.Logf("%s: %d violations identical across worker counts 1,2,3,4,8", name, len(serial))
	}
}
