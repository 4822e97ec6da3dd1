package stats

import (
	"context"
	"strings"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/geom"
	"rdlroute/internal/router"
	"rdlroute/internal/xarch"
)

func mkRoute(net, layer int, pts ...geom.Point) *detail.Route {
	return &detail.Route{
		Net:  net,
		Segs: []detail.RouteSeg{{Layer: layer, Pl: geom.Polyline(pts)}},
	}
}

func TestAnalyzeBasics(t *testing.T) {
	routes := []*detail.Route{
		mkRoute(0, 0, geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10)), // 0° + 90°
		mkRoute(1, 1, geom.Pt(0, 0), geom.Pt(10, 3)),                  // ~16.7°
		nil,
	}
	r := Analyze(routes)
	if r.Nets != 2 {
		t.Errorf("nets = %d", r.Nets)
	}
	if r.Segments != 3 {
		t.Errorf("segments = %d", r.Segments)
	}
	wantWL := 10 + 10 + geom.Pt(0, 0).Dist(geom.Pt(10, 3))
	if !geom.ApproxEq(r.Wirelength, wantWL) {
		t.Errorf("wirelength = %v, want %v", r.Wirelength, wantWL)
	}
	if !geom.ApproxEq(r.PerLayerWL[0], 20) {
		t.Errorf("layer 0 WL = %v", r.PerLayerWL[0])
	}
	// 2 of 3 segments octilinear.
	if got := r.OctilinearFrac; got < 0.6 || got > 0.7 {
		t.Errorf("octilinear frac = %v", got)
	}
	// Angle buckets: 0°, 90°, 16.7° → three distinct.
	if r.DistinctAngles() != 3 {
		t.Errorf("distinct angles = %d", r.DistinctAngles())
	}
	if r.SegLenMax < 10 || r.SegLenP50 <= 0 {
		t.Errorf("percentiles wrong: %+v", r)
	}
}

func TestAnalyzeViaCounts(t *testing.T) {
	rt := mkRoute(0, 0, geom.Pt(0, 0), geom.Pt(10, 0))
	rt.Vias = []detail.ViaUse{{Pos: geom.Pt(10, 0), Layer: 0}, {Pos: geom.Pt(20, 0), Layer: 0}}
	r := Analyze([]*detail.Route{rt})
	if r.Vias[0] != 2 {
		t.Errorf("via count = %v", r.Vias)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	r := Analyze(nil)
	if r.Segments != 0 || r.Wirelength != 0 || r.DistinctAngles() != 0 {
		t.Errorf("empty analysis nonzero: %+v", r)
	}
	var sb strings.Builder
	r.Print(&sb) // must not panic
}

func TestPrintFormat(t *testing.T) {
	routes := []*detail.Route{mkRoute(0, 0, geom.Pt(0, 0), geom.Pt(100, 37))}
	var sb strings.Builder
	Analyze(routes).Print(&sb)
	out := sb.String()
	for _, want := range []string{"nets 1", "wirelength", "octilinear", "angle histogram"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestAnyAngleVersusXarchHistogram is the quantitative core claim: the
// any-angle router populates many more direction buckets than the
// X-architecture baseline, whose segments collapse onto 4 orientations.
func TestAnyAngleVersusXarchHistogram(t *testing.T) {
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	ours, err := router.Route(context.Background(), d, router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	cai, err := router.Route(context.Background(), d2, xarch.Options(router.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	ra := Analyze(ours.DetailResult.Routes)
	rc := Analyze(cai.DetailResult.Routes)
	if rc.OctilinearFrac < 0.99 {
		t.Errorf("X-architecture octilinear fraction = %v, want ~1", rc.OctilinearFrac)
	}
	if ra.OctilinearFrac > 0.8 {
		t.Errorf("any-angle octilinear fraction = %v, want well below 1", ra.OctilinearFrac)
	}
	if ra.DistinctAngles() <= rc.DistinctAngles() {
		t.Errorf("any-angle %d distinct buckets vs X-arch %d",
			ra.DistinctAngles(), rc.DistinctAngles())
	}
	t.Logf("any-angle: %d distinct 5° buckets, %.1f%% octilinear; X-arch: %d buckets, %.1f%% octilinear",
		ra.DistinctAngles(), ra.OctilinearFrac*100, rc.DistinctAngles(), rc.OctilinearFrac*100)
}

// TestSegLenP90NearestRank is the regression test for the nearest-rank
// off-by-one: the old floor formula lengths[n*9/10] over-shot small samples
// (n=5 gave index 4, the maximum; n=10 gave index 9 instead of 8). The
// nearest-rank definition is ceil(0.9·n)-1.
func TestSegLenP90NearestRank(t *testing.T) {
	// One route per case: a horizontal polyline with n segments of lengths
	// 1, 2, ..., n (already sorted once Analyze collects them).
	build := func(n int) []*detail.Route {
		pts := []geom.Point{geom.Pt(0, 0)}
		x := 0.0
		for i := 1; i <= n; i++ {
			x += float64(i)
			pts = append(pts, geom.Pt(x, 0))
		}
		return []*detail.Route{mkRoute(0, 0, pts...)}
	}
	cases := []struct {
		n    int
		want float64 // value at index ceil(0.9n)-1 in 1..n
	}{
		{1, 1},   // ceil(0.9)-1 = 0
		{5, 5},   // ceil(4.5)-1 = 4
		{10, 9},  // ceil(9)-1 = 8; the floor formula returned 10 (the max)
		{11, 10}, // ceil(9.9)-1 = 9
	}
	for _, c := range cases {
		r := Analyze(build(c.n))
		if !geom.ApproxEq(r.SegLenP90, c.want) {
			t.Errorf("n=%d: p90 = %v, want %v", c.n, r.SegLenP90, c.want)
		}
	}
}

func TestPercentileIndex(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {5, 4}, {10, 8}, {11, 9}, {100, 89},
	}
	for _, c := range cases {
		if got := percentileIndex(c.n, 0.9); got != c.want {
			t.Errorf("percentileIndex(%d, 0.9) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestLayerBalance(t *testing.T) {
	// Layer 0 carries 30 µm, layer 1 carries 10 µm: max/mean = 30/20.
	routes := []*detail.Route{
		mkRoute(0, 0, geom.Pt(0, 0), geom.Pt(30, 0)),
		mkRoute(1, 1, geom.Pt(0, 0), geom.Pt(10, 0)),
	}
	r := Analyze(routes)
	if !geom.ApproxEq(r.LayerBalance, 1.5) {
		t.Errorf("layer balance = %v, want 1.5", r.LayerBalance)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "layer balance 1.50") {
		t.Errorf("Print missing layer balance line:\n%s", sb.String())
	}
	if bal := Analyze(nil).LayerBalance; bal != 0 {
		t.Errorf("empty analysis balance = %v, want 0", bal)
	}
}

func TestViaTotal(t *testing.T) {
	rt := mkRoute(0, 0, geom.Pt(0, 0), geom.Pt(10, 0))
	rt.Vias = []detail.ViaUse{{Pos: geom.Pt(10, 0), Layer: 0}, {Pos: geom.Pt(20, 0), Layer: 1}}
	r := Analyze([]*detail.Route{rt})
	if r.ViaTotal != 2 || r.Vias[0] != 1 || r.Vias[1] != 1 {
		t.Errorf("via accounting: total %d, map %v", r.ViaTotal, r.Vias)
	}
}
