package svg

import (
	"strings"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/geom"
	"rdlroute/internal/stats"
	"rdlroute/internal/verify"
)

// viaCircles counts via markers in an SVG document (the only circles drawn
// with fill="none").
func viaCircles(doc string) int {
	n := 0
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "<circle") && strings.Contains(line, `fill="none"`) {
			n++
		}
	}
	return n
}

// TestViaLayerSemanticsAgree pins the shared definition of
// detail.ViaUse.Layer across every consumer: via layer k joins wire layers
// k and k+1. The SVG layer filter, the stats via histogram and its V<k>-<k+1>
// labels, and the verifier's via-wire spacing check must all agree on which
// wire layers a via touches.
func TestViaLayerSemanticsAgree(t *testing.T) {
	d := &design.Design{
		Name:    "via-semantics",
		Rules:   design.DefaultRules(),
		Outline: geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1000, 1000)},
		IOPads: []design.Pad{
			{ID: 0, Net: 0, Chip: -1, Pos: geom.Pt(100, 100)},
			{ID: 1, Net: 0, Chip: -1, Pos: geom.Pt(900, 400)},
			{ID: 2, Net: 1, Chip: -1, Pos: geom.Pt(400, 404.5)},
			{ID: 3, Net: 1, Chip: -1, Pos: geom.Pt(600, 404.5)},
			{ID: 4, Net: 2, Chip: -1, Pos: geom.Pt(400, 404.5)},
			{ID: 5, Net: 2, Chip: -1, Pos: geom.Pt(600, 404.5)},
		},
		Nets: []design.Net{
			{ID: 0, Name: "n0", Pins: [2]int{0, 1}},
			{ID: 1, Name: "n1", Pins: [2]int{2, 3}},
			{ID: 2, Name: "n2", Pins: [2]int{4, 5}},
		},
		WireLayers: 3,
	}
	// Net 0 descends from wire layer 1 to wire layer 2 through one via on
	// via layer 1 at (500,400). Nets 1 and 2 run the same wire 4.5 µm from
	// the via position — net 1 on wire layer 2 (touched by via layer 1),
	// net 2 on wire layer 0 (not touched).
	routes := []*detail.Route{
		{
			Net: 0,
			Segs: []detail.RouteSeg{
				{Layer: 1, Pl: geom.Polyline{geom.Pt(100, 100), geom.Pt(500, 400)}},
				{Layer: 2, Pl: geom.Polyline{geom.Pt(500, 400), geom.Pt(900, 400)}},
			},
			Vias: []detail.ViaUse{{Pos: geom.Pt(500, 400), Layer: 1}},
		},
		{
			Net:  1,
			Segs: []detail.RouteSeg{{Layer: 2, Pl: geom.Polyline{geom.Pt(400, 404.5), geom.Pt(600, 404.5)}}},
		},
		{
			Net:  2,
			Segs: []detail.RouteSeg{{Layer: 0, Pl: geom.Polyline{geom.Pt(400, 404.5), geom.Pt(600, 404.5)}}},
		},
	}

	// SVG: the via renders exactly on wire layers 1 and 2.
	wantCircles := map[int]int{0: 0, 1: 1, 2: 1}
	for layer, want := range wantCircles {
		var sb strings.Builder
		if err := Render(&sb, d, routes, layer); err != nil {
			t.Fatal(err)
		}
		if got := viaCircles(sb.String()); got != want {
			t.Errorf("layer %d: %d via circles drawn, want %d", layer, got, want)
		}
	}

	// Stats: the via counts under its via layer index and the Print label
	// names the two wire layers it joins.
	rep := stats.Analyze(routes)
	if rep.Vias[1] != 1 || rep.ViaTotal != 1 {
		t.Errorf("stats Vias = %v (total %d), want map[1:1] total 1", rep.Vias, rep.ViaTotal)
	}
	var sb strings.Builder
	rep.Print(&sb)
	if !strings.Contains(sb.String(), "V1-2=1") {
		t.Errorf("stats Print should label the via V1-2:\n%s", sb.String())
	}

	// Verify: via-wire spacing applies on wire layers 1 and 2 only — the
	// net-1 wire on layer 2 conflicts, the identical net-2 wire on layer 0
	// does not.
	vrep := verify.Verify(d, routes)
	var conflicts []int
	for _, p := range vrep.Problems {
		if p.Kind == verify.ViaWireSpacing {
			conflicts = append(conflicts, p.Other)
		}
	}
	if len(conflicts) != 1 || conflicts[0] != 1 {
		t.Errorf("via-wire conflicts with nets %v, want [1] (layer-0 wire must not conflict)", conflicts)
	}
	for _, p := range vrep.Problems {
		if p.Kind != verify.ViaWireSpacing {
			t.Errorf("unexpected %s finding: %+v", p.Kind, p)
		}
	}
}
