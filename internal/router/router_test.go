package router

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/global"
	"rdlroute/internal/viaplan"
)

func TestRouteDense1(t *testing.T) {
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Route(context.Background(), d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	if m.Routability != 1 {
		t.Fatalf("routability = %v", m.Routability)
	}
	if m.RoutedNets != m.TotalNets || m.TotalNets != len(d.Nets) {
		t.Errorf("net counts wrong: %d/%d", m.RoutedNets, m.TotalNets)
	}
	if m.Wirelength <= d.TotalHPWL() {
		t.Errorf("wirelength %v below HPWL %v", m.Wirelength, d.TotalHPWL())
	}
	if m.WirelengthIsLB {
		t.Error("full routability must not be a lower bound")
	}
	if m.Vias == 0 {
		t.Error("crossing nets should need vias")
	}
	if m.Vias%2 != 0 {
		t.Error("via count must be even for pins on one layer")
	}
	if m.Runtime <= 0 {
		t.Error("runtime not measured")
	}
	if m.TimedOut {
		t.Error("should not time out without budget")
	}
	if m.GraphStats.ViaNodes == 0 || m.GraphStats.EdgeNodes == 0 {
		t.Error("graph stats missing")
	}
	if len(out.Violations) != m.DRCViolations {
		t.Error("violation count mismatch")
	}
}

func TestRouteMetricsConsistency(t *testing.T) {
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Route(context.Background(), d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Metrics wirelength equals the detail result's.
	if out.Metrics.Wirelength != out.DetailResult.Wirelength {
		t.Error("wirelength mismatch between metrics and detail result")
	}
	// Via count matches route via lists.
	vias := 0
	for _, rt := range out.DetailResult.Routes {
		if rt != nil {
			vias += len(rt.Vias)
		}
	}
	if vias != out.Metrics.Vias {
		t.Errorf("vias = %d, metrics say %d", vias, out.Metrics.Vias)
	}
	// DRC recomputes identically.
	vs := detail.CheckDRCParallel(out.DetailResult.Routes, d, detail.DRCOptions{})
	if len(vs) != out.Metrics.DRCViolations {
		t.Errorf("DRC recount %d != %d", len(vs), out.Metrics.DRCViolations)
	}
}

func TestRouteTimeBudget(t *testing.T) {
	d, err := design.GenerateDense("dense3")
	if err != nil {
		t.Fatal(err)
	}
	// A 1 ns budget must abort global routing almost immediately but still
	// return a structurally valid (mostly empty) result.
	out, err := Route(context.Background(), d, Options{TimeBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Metrics.TimedOut {
		t.Error("expected timeout")
	}
	if out.Metrics.Routability > 0.5 {
		t.Errorf("timed-out run routed %.0f%%", out.Metrics.Routability*100)
	}
	if out.Metrics.RoutedNets < out.Metrics.TotalNets && !out.Metrics.WirelengthIsLB {
		t.Error("partial result must flag wirelength as a lower bound")
	}
}

func TestRouteContextCancelReturnsPartial(t *testing.T) {
	// Cancelling the caller's context mid-global-route must surface as an
	// error (unlike a deadline, which degrades silently) while still
	// returning the partial Output for inspection.
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	committed := 0
	out, err := Route(ctx, d, Options{
		TimeBudget: time.Hour,
		Global: global.Options{
			AfterEachNet: func(*global.Router, int) {
				committed++
				if committed == 2 {
					cancel()
				}
			},
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out == nil {
		t.Fatal("cancellation must still return the partial Output")
	}
	if out.Metrics.TimedOut {
		t.Error("explicit cancel must not read as a timeout")
	}
	if out.Metrics.Routability >= 1 {
		t.Error("cancelled run must not reach full routability")
	}
	if out.DetailResult == nil || len(out.DetailResult.Routes) != len(d.Nets) {
		t.Error("partial Output must carry a full-length detail result")
	}
}

func TestRouteTimeoutCause(t *testing.T) {
	// The TimeBudget deadline carries ErrTimeout as its cancellation cause,
	// and the run degrades without an error.
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Route(context.Background(), d, Options{TimeBudget: time.Nanosecond})
	if err != nil {
		t.Fatalf("deadline must degrade, not error: %v", err)
	}
	if !out.Metrics.TimedOut {
		t.Error("1ns budget must report TimedOut")
	}
}

func TestRouteInvalidDesign(t *testing.T) {
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	d.WireLayers = 0
	if _, err := Route(context.Background(), d, Options{}); err == nil {
		t.Error("invalid design must fail")
	}
}

// TestRouteValidatesOptions pins that Route rejects what the service
// rejects: a negative order-round bound would route nothing, a negative
// edge share would free capacity, and an unknown verify mode would run as
// warn, each without an error.
func TestRouteValidatesOptions(t *testing.T) {
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]Options{
		"negative max order rounds": {Global: global.Options{MaxOrderRounds: -1}},
		"negative edge use per net": {Global: global.Options{EdgeUsePerNet: -1}},
		"unknown verify mode":       {Verify: "loud"},
	} {
		if out, err := Route(context.Background(), d, opt); err == nil {
			t.Errorf("%s: Route returned no error (routability %v)", name, out.Metrics.Routability)
		}
	}
}

// TestRouteRejectsHugeLattice checks that the via planner's lattice cap
// reaches Route's caller: dense1 with every rule ×1e-3 fails with
// viaplan.ErrLatticeTooLarge.
func TestRouteRejectsHugeLattice(t *testing.T) {
	tiny, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	r := &tiny.Rules
	r.WireWidth, r.ViaWidth, r.MinSpacing, r.MinTurnDist =
		r.WireWidth*1e-3, r.ViaWidth*1e-3, r.MinSpacing*1e-3, r.MinTurnDist*1e-3
	if _, err := Route(context.Background(), tiny, Options{}); !errors.Is(err, viaplan.ErrLatticeTooLarge) {
		t.Errorf("rules ×1e-3: Route error = %v, want viaplan.ErrLatticeTooLarge", err)
	}
}

// TestHeldOutputRetainsLittle checks that a finished Output keeps only what
// it carries: the live heap with a routed dense3 Output held exceeds the
// live heap after dropping it by less than 1 MB, so neither the routing
// graph nor the global router outlives Route. The design stays alive in
// both readings. The test is not parallel: another test's allocations
// would move the heap between the readings.
func TestHeldOutputRetainsLittle(t *testing.T) {
	d, err := design.GenerateDense("dense3")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Route(context.Background(), d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	held := liveHeap()
	if out.Metrics.Routability != 1 {
		t.Fatalf("routability = %v", out.Metrics.Routability)
	}
	dropped := liveHeap()
	runtime.KeepAlive(d)
	retained := float64(int64(held)-int64(dropped)) / 1e6
	t.Logf("a held dense3 Output retains %.3f MB", retained)
	if retained >= 1 {
		t.Errorf("a held dense3 Output retains %.2f MB of live heap, want under 1 MB", retained)
	}
}

// liveHeap returns the heap in use after two forced collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
