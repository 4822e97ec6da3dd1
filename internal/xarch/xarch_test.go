package xarch

import (
	"context"
	"math"
	"testing"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/router"
)

// route runs the baseline preset over base on a freshly generated case.
func route(t *testing.T, name string, base router.Options) *router.Output {
	t.Helper()
	d, err := design.GenerateDense(name)
	if err != nil {
		t.Fatal(err)
	}
	out, err := router.Route(context.Background(), d, Options(base))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBaselinePinned pins the baseline's Table II quality columns and its
// DRC count on dense1–3. The wirelength is exact: it sums the staircase
// lengths in route order, then segment order.
func TestBaselinePinned(t *testing.T) {
	for _, c := range []struct {
		name       string
		routed     int
		vias, drc  int
		wirelength float64
	}{
		{"dense1", 22, 32, 373, 21311.769760038107},
		{"dense2", 46, 50, 1126, 57329.5176344737},
		{"dense3", 79, 106, 1516, 89651.62829997794},
	} {
		m := route(t, c.name, router.Options{}).Metrics
		if m.RoutedNets != c.routed || m.Routability != 1 || m.Vias != c.vias ||
			m.DRCViolations != c.drc || m.Wirelength != c.wirelength {
			t.Errorf("%s: routed %d/%d (routability %v), vias %d, DRC %d, wirelength %v; want %d routed, vias %d, DRC %d, wirelength %v",
				c.name, m.RoutedNets, m.TotalNets, m.Routability, m.Vias, m.DRCViolations, m.Wirelength,
				c.routed, c.vias, c.drc, c.wirelength)
		}
	}
}

func TestRouteDense1(t *testing.T) {
	out := route(t, "dense1", router.Options{})
	if out.Metrics.Routability != 1 {
		t.Fatalf("routability = %v", out.Metrics.Routability)
	}
	// Every routed polyline is octilinear.
	for _, rt := range out.DetailResult.Routes {
		if rt == nil {
			continue
		}
		for _, seg := range rt.Segs {
			for _, s := range seg.Pl.Segments() {
				dx := math.Abs(s.B.X - s.A.X)
				dy := math.Abs(s.B.Y - s.A.Y)
				if dx > 1e-6 && dy > 1e-6 && math.Abs(dx-dy) > 1e-6 {
					t.Fatalf("net %d has non-octilinear segment %v", rt.Net, s)
				}
			}
		}
	}
}

func TestXarchLongerThanAnyAngle(t *testing.T) {
	// The headline claim of Table II: the X-architecture baseline pays more
	// wirelength than the any-angle router on the same design.
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	ours, err := router.Route(context.Background(), d, router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cai := route(t, "dense1", router.Options{}).Metrics
	if cai.Wirelength <= ours.Metrics.Wirelength {
		t.Errorf("X-architecture %v not longer than any-angle %v",
			cai.Wirelength, ours.Metrics.Wirelength)
	}
	gain := (cai.Wirelength - ours.Metrics.Wirelength) / cai.Wirelength
	t.Logf("any-angle saves %.1f%% wirelength (paper: 15.7%% on the original suite)", gain*100)
}

func TestRouteTimeBudget(t *testing.T) {
	out := route(t, "dense3", router.Options{TimeBudget: time.Millisecond})
	if !out.Metrics.TimedOut {
		t.Error("1ms budget must time out")
	}
	if out.Metrics.Routability >= 1 {
		t.Error("timed-out run should be partial")
	}
	// Partial results stay structurally sound: every produced route is
	// counted.
	routed := 0
	for _, rt := range out.DetailResult.Routes {
		if rt != nil {
			routed++
		}
	}
	if routed != out.Metrics.RoutedNets {
		t.Errorf("routed count %d != %d", routed, out.Metrics.RoutedNets)
	}
}

func TestWirelengthMatchesGeometry(t *testing.T) {
	out := route(t, "dense1", router.Options{})
	var sum float64
	for _, rt := range out.DetailResult.Routes {
		if rt == nil {
			continue
		}
		sum += rt.Wirelength()
	}
	if diff := sum - out.Metrics.Wirelength; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("reported wirelength %v != geometry sum %v", out.Metrics.Wirelength, sum)
	}
}
