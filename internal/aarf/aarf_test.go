package aarf

import (
	"context"
	"math"
	"testing"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/router"
)

// route runs the baseline preset over base on a freshly generated case.
// Without rebuild it drops the mesh-rebuild hook, which keeps the routing
// result and skips the cost emulation.
func route(t *testing.T, name string, base router.Options, rebuild bool) *router.Output {
	t.Helper()
	d, err := design.GenerateDense(name)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options(base)
	if !rebuild {
		opt.Global.AfterEachNet = nil
	}
	out, err := router.Route(context.Background(), d, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBaselinePinned pins the baseline's Table III quality columns and its
// DRC count on dense1–3, with the mesh rebuild off.
func TestBaselinePinned(t *testing.T) {
	for _, c := range []struct {
		name       string
		routed     int
		vias, drc  int
		wirelength float64
	}{
		{"dense1", 20, 18, 20, 16007.637785},
		{"dense2", 43, 42, 60, 52127.215502},
		{"dense3", 79, 114, 27, 81527.477043},
	} {
		m := route(t, c.name, router.Options{}, false).Metrics
		routability := float64(c.routed) / float64(m.TotalNets)
		if m.RoutedNets != c.routed || m.Routability != routability || m.Vias != c.vias ||
			m.DRCViolations != c.drc || math.Abs(m.Wirelength-c.wirelength) > 1e-6 {
			t.Errorf("%s: routed %d/%d (routability %v), vias %d, DRC %d, wirelength %.6f; want %d routed, vias %d, DRC %d, wirelength %.6f",
				c.name, m.RoutedNets, m.TotalNets, m.Routability, m.Vias, m.DRCViolations, m.Wirelength,
				c.routed, c.vias, c.drc, c.wirelength)
		}
	}
}

func TestRouteDense1(t *testing.T) {
	out := route(t, "dense1", router.Options{}, false)
	m := out.Metrics
	if m.Routability <= 0 {
		t.Fatal("nothing routed")
	}
	if m.RoutedNets == 0 || m.Wirelength <= 0 {
		t.Fatalf("empty result: %+v", m)
	}
	if m.TimedOut {
		t.Error("no budget given, must not time out")
	}
	// Result plumbing consistency.
	routed := 0
	for _, rt := range out.DetailResult.Routes {
		if rt != nil {
			routed++
		}
	}
	if routed != m.RoutedNets {
		t.Errorf("routed count %d != %d", routed, m.RoutedNets)
	}
}

func TestRebuildCostsTime(t *testing.T) {
	fast := route(t, "dense1", router.Options{}, false)
	slow := route(t, "dense1", router.Options{}, true)
	if slow.Metrics.Runtime < 2*fast.Metrics.Runtime {
		t.Errorf("per-net rebuild should dominate runtime: with=%v without=%v",
			slow.Metrics.Runtime, fast.Metrics.Runtime)
	}
	if slow.Metrics.Wirelength != fast.Metrics.Wirelength || slow.Metrics.Vias != fast.Metrics.Vias {
		t.Errorf("the rebuild changed the routes: wirelength %v vs %v, vias %d vs %d",
			slow.Metrics.Wirelength, fast.Metrics.Wirelength, slow.Metrics.Vias, fast.Metrics.Vias)
	}
}

// TestSharedOptions routes twice, concurrently, with one preset value: the
// hook's point sets follow the router that calls it and sit behind a
// mutex, so the race detector sees no race and both runs route alike.
func TestSharedOptions(t *testing.T) {
	opt := Options(router.Options{})
	outs := make([]*router.Output, 2)
	errs := make([]error, 2)
	done := make(chan int)
	for i := range outs {
		go func() {
			defer func() { done <- i }()
			d, err := design.GenerateDense("dense1")
			if err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = router.Route(context.Background(), d, opt)
		}()
	}
	<-done
	<-done
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if outs[0].Metrics.Wirelength != outs[1].Metrics.Wirelength {
		t.Errorf("shared options routed differently: %v vs %v",
			outs[0].Metrics.Wirelength, outs[1].Metrics.Wirelength)
	}
}

func TestTimeBudgetCutsRun(t *testing.T) {
	m := route(t, "dense3", router.Options{TimeBudget: time.Millisecond}, true).Metrics
	if !m.TimedOut {
		t.Error("1ms budget must time out")
	}
	if m.Routability >= 1 {
		t.Error("timed-out run should be partial")
	}
}

func TestNeverBeatsOursOnRoutability(t *testing.T) {
	// The Table III claim: the greedy baseline never routes more nets than
	// the full flow.
	for _, name := range []string{"dense1", "dense2"} {
		d, err := design.GenerateDense(name)
		if err != nil {
			t.Fatal(err)
		}
		ours, err := router.Route(context.Background(), d, router.Options{})
		if err != nil {
			t.Fatal(err)
		}
		aa := route(t, name, router.Options{}, false).Metrics
		if aa.Routability > ours.Metrics.Routability {
			t.Errorf("%s: AARF* %.3f beats ours %.3f", name, aa.Routability, ours.Metrics.Routability)
		}
	}
}
