package router

import (
	"context"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/global"
)

// wideNetDesign returns dense1 with a few nets widened to power-class
// wires.
func wideNetDesign(t *testing.T, width float64, nets ...int) *design.Design {
	t.Helper()
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	for _, ni := range nets {
		d.Nets[ni].Width = width
	}
	return d
}

func TestWidthHelpers(t *testing.T) {
	d := wideNetDesign(t, 8, 3)
	if got := d.WidthOf(3); got != 8 {
		t.Errorf("WidthOf(3) = %v", got)
	}
	if got := d.WidthOf(0); got != d.Rules.WireWidth {
		t.Errorf("WidthOf(0) = %v", got)
	}
	if got := d.WidthOf(-1); got != d.Rules.WireWidth {
		t.Errorf("WidthOf(-1) = %v", got)
	}
	// Clearance: default pair = pitch; wide pair larger.
	if got := d.Clearance(0, 1); got != d.Rules.Pitch() {
		t.Errorf("default clearance = %v, want %v", got, d.Rules.Pitch())
	}
	if got := d.Clearance(0, 3); got != (2+8)/2.0+2 {
		t.Errorf("mixed clearance = %v, want 7", got)
	}
	// Track units: 8 µm wire at 4 µm pitch occupies ceil(10/4) = 3 tracks.
	if got := d.TrackUnits(3); got != 3 {
		t.Errorf("TrackUnits(3) = %v, want 3", got)
	}
	if got := d.TrackUnits(0); got != 1 {
		t.Errorf("TrackUnits(0) = %v, want 1", got)
	}
}

func TestRouteWideNets(t *testing.T) {
	d := wideNetDesign(t, 8, 2, 10)
	out, err := Route(context.Background(), d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics.Routability != 1 {
		t.Fatalf("routability with wide nets = %v (failed %v)",
			out.Metrics.Routability, out.GlobalResult.FailedNets)
	}
	// The DRC must evaluate wide pairs against their larger limit: every
	// spacing violation involving a wide net reports the width-aware limit,
	// and the overall violation count stays a small fraction of the
	// segments (mixed-width legalization keeps residuals, documented in
	// EXPERIMENTS.md, but the checker must measure them correctly).
	wideLimit := d.Clearance(2, 0)
	if wideLimit <= d.Rules.Pitch() {
		t.Fatal("test setup: wide clearance not larger than pitch")
	}
	segs := 0
	for _, rt := range out.DetailResult.Routes {
		if rt == nil {
			continue
		}
		for _, s := range rt.Segs {
			segs += len(s.Pl) - 1
		}
	}
	spacing := 0
	for _, v := range out.Violations {
		if v.Kind != detail.SpacingViolation {
			continue
		}
		spacing++
		want := d.Clearance(v.NetA, v.NetB)
		if v.Limit != want {
			t.Errorf("violation %v uses limit %v, want width-aware %v", v, v.Limit, want)
		}
	}
	if spacing > segs/10 {
		t.Errorf("%d spacing violations over %d segments", spacing, segs)
	}
	t.Logf("wide run: %d spacing residuals over %d segments", spacing, segs)
}

func TestWideNetConsumesMoreCapacity(t *testing.T) {
	// A widened net consumes more edge capacity, so total consumed units
	// must exceed the default run's on the edges it crosses. Indirect but
	// effective check: CheckInvariants (which verifies units bookkeeping)
	// passes and the wide run's guide is not shorter than the default one.
	const wide = 5
	route := func(d *design.Design) (*Output, *global.Router) {
		t.Helper()
		var gr *global.Router
		opt := Options{}
		opt.Global.AfterEachNet = func(r *global.Router, _ int) { gr = r }
		out, err := Route(context.Background(), d, opt)
		if err != nil {
			t.Fatal(err)
		}
		return out, gr
	}
	dDefault, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	outDefault, grDefault := route(dDefault)
	outWide, grWide := route(wideNetDesign(t, 10, wide))
	if err := grWide.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if outWide.Metrics.Routability != 1 {
		t.Fatalf("wide run routability %v", outWide.Metrics.Routability)
	}
	gDefault, gWide := outDefault.GlobalResult.Guides[wide], outWide.GlobalResult.Guides[wide]
	if gDefault == nil || gWide == nil {
		t.Fatalf("net %d unrouted: default guide %v, wide guide %v", wide, gDefault, gWide)
	}
	if lw, ld := grWide.GuideLength(gWide), grDefault.GuideLength(gDefault); lw < ld {
		t.Errorf("net %d: wide guide %.2f µm shorter than the default %.2f µm", wide, lw, ld)
	}
}

func TestWidthSurvivesJSON(t *testing.T) {
	d := wideNetDesign(t, 8, 3)
	path := t.TempDir() + "/w.json"
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := design.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.WidthOf(3) != 8 || got.WidthOf(0) != d.Rules.WireWidth {
		t.Error("width lost in JSON round trip")
	}
}
