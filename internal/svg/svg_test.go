package svg

import (
	"strings"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/geom"
)

func sampleRoutes() []*detail.Route {
	return []*detail.Route{
		{
			Net: 0,
			Segs: []detail.RouteSeg{
				{Layer: 0, Pl: geom.Polyline{geom.Pt(100, 100), geom.Pt(500, 400)}},
				{Layer: 1, Pl: geom.Polyline{geom.Pt(500, 400), geom.Pt(900, 400)}},
			},
			Vias: []detail.ViaUse{{Pos: geom.Pt(500, 400), Layer: 0}},
		},
		nil, // unrouted nets are tolerated
	}
}

func sampleDesign(t *testing.T) *design.Design {
	t.Helper()
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRenderBasics(t *testing.T) {
	d := sampleDesign(t)
	var sb strings.Builder
	if err := Render(&sb, d, sampleRoutes(), 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("not an SVG document")
	}
	if !strings.Contains(out, "<polyline") {
		t.Error("layer-0 route not drawn")
	}
	if !strings.Contains(out, "<circle") {
		t.Error("pads/vias not drawn")
	}
	// One chip rect per chip plus the outline rect.
	if got := strings.Count(out, "<rect"); got != len(d.Chips)+1 {
		t.Errorf("rect count = %d, want %d", got, len(d.Chips)+1)
	}
}

func TestRenderLayerFilter(t *testing.T) {
	d := sampleDesign(t)
	var l0, l1, l9 strings.Builder
	if err := Render(&l0, d, sampleRoutes(), 0); err != nil {
		t.Fatal(err)
	}
	if err := Render(&l1, d, sampleRoutes(), 1); err != nil {
		t.Fatal(err)
	}
	if err := Render(&l9, d, sampleRoutes(), 9); err != nil {
		t.Fatal(err)
	}
	if strings.Count(l0.String(), "<polyline") != 1 {
		t.Error("layer 0 should draw exactly one polyline")
	}
	if strings.Count(l1.String(), "<polyline") != 1 {
		t.Error("layer 1 should draw exactly one polyline")
	}
	if strings.Count(l9.String(), "<polyline") != 0 {
		t.Error("empty layer should draw no polylines")
	}
}

// TestRenderBumps checks that the bump pads are drawn on the bottom wire
// layer, and on no other.
func TestRenderBumps(t *testing.T) {
	d := sampleDesign(t)
	var top, bottom strings.Builder
	if err := Render(&top, d, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := Render(&bottom, d, nil, d.WireLayers-1); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(bottom.String(), "<circle")-strings.Count(top.String(), "<circle"), len(d.BumpPads); got != want {
		t.Errorf("bottom layer draws %d more circles than the top, want %d bump pads", got, want)
	}
}

func TestRenderDefaultScale(t *testing.T) {
	d := sampleDesign(t)
	var sb strings.Builder
	if err := Render(&sb, d, nil, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `width="915"`) {
		// 3660 µm * 0.25 = 915 SVG units for dense1.
		t.Errorf("unexpected scaling: %s", sb.String()[:120])
	}
}
