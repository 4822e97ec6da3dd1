package viaplan

import (
	"errors"
	"math/rand"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/dt"
	"rdlroute/internal/geom"
)

func mustDesign(t *testing.T, name string) *design.Design {
	t.Helper()
	d, err := design.GenerateDense(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildDense1(t *testing.T) {
	d := mustDesign(t, "dense1")
	p, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Layers) != d.WireLayers {
		t.Fatalf("layers = %d, want %d", len(p.Layers), d.WireLayers)
	}
	if len(p.Vias) == 0 {
		t.Fatal("no candidate vias generated")
	}
	// Layer 0 contains all pins; bottom layer contains all bumps.
	pins, bumps := 0, 0
	for _, v := range p.Layers[0].Verts {
		if v.Kind == KindPin {
			pins++
		}
	}
	for _, v := range p.Layers[d.WireLayers-1].Verts {
		if v.Kind == KindBump {
			bumps++
		}
	}
	if pins != len(d.IOPads) {
		t.Errorf("layer 0 pins = %d, want %d", pins, len(d.IOPads))
	}
	if bumps != len(d.BumpPads) {
		t.Errorf("bottom layer bumps = %d, want %d", bumps, len(d.BumpPads))
	}
}

func TestViaAppearsOnBothAdjacentLayers(t *testing.T) {
	d := mustDesign(t, "dense3") // 3 wire layers, 2 via layers
	p, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	count := make(map[int]int) // via ID -> layers it appears on
	for _, lp := range p.Layers {
		for _, v := range lp.Verts {
			if v.Kind == KindVia {
				count[v.Ref]++
			}
		}
	}
	if len(count) != len(p.Vias) {
		t.Fatalf("%d vias referenced, want %d", len(count), len(p.Vias))
	}
	for id, c := range count {
		if c != 2 {
			t.Errorf("via %d appears on %d layers, want 2", id, c)
		}
	}
	// Middle wire layer (index 1) must carry vias from both via layers.
	has := map[int]bool{}
	for _, v := range p.Layers[1].Verts {
		if v.Kind == KindVia {
			has[p.Vias[v.Ref].Layer] = true
		}
	}
	if !has[0] || !has[1] {
		t.Errorf("middle layer via-layer coverage = %v, want both 0 and 1", has)
	}
}

func TestViaClearance(t *testing.T) {
	d := mustDesign(t, "dense1")
	p, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clearance := d.Rules.ViaWidth + d.Rules.MinSpacing
	for _, v := range p.Vias {
		if v.Layer == 0 {
			for _, pad := range d.IOPads {
				if v.Pos.Dist(pad.Pos) < clearance {
					t.Fatalf("via %d at %v violates pad clearance", v.ID, v.Pos)
				}
			}
		}
		if v.Layer == d.WireLayers-2 {
			for _, pad := range d.BumpPads {
				if v.Pos.Dist(pad.Pos) < clearance {
					t.Fatalf("via %d at %v violates bump clearance", v.ID, v.Pos)
				}
			}
		}
		if !d.Outline.Contains(v.Pos) {
			t.Fatalf("via %d at %v outside outline", v.ID, v.Pos)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	d := mustDesign(t, "dense2")
	p1, err := Build(d, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Build(d, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Vias) != len(p2.Vias) {
		t.Fatal("via counts differ")
	}
	for i := range p1.Vias {
		if p1.Vias[i] != p2.Vias[i] {
			t.Fatalf("via %d differs", i)
		}
	}
}

func TestLayersTriangulate(t *testing.T) {
	// The whole point of the plan is to feed DT; every layer must
	// triangulate cleanly.
	d := mustDesign(t, "dense1")
	p, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, lp := range p.Layers {
		pts := make([]geom.Point, len(lp.Verts))
		for i, v := range lp.Verts {
			pts[i] = v.Pos
		}
		m, err := dt.Triangulate(pts)
		if err != nil {
			t.Fatalf("layer %d: %v", lp.Index, err)
		}
		if err := m.CheckTopology(); err != nil {
			t.Fatalf("layer %d: %v", lp.Index, err)
		}
	}
}

func TestBoundaryDummies(t *testing.T) {
	pts := boundaryDummies(geom.R(0, 0, 100, 50), 25)
	if len(pts) == 0 {
		t.Fatal("no dummies")
	}
	for _, p := range pts {
		onX := geom.ApproxEq(p.X, 0) || geom.ApproxEq(p.X, 100)
		onY := geom.ApproxEq(p.Y, 0) || geom.ApproxEq(p.Y, 50)
		if !onX && !onY {
			t.Errorf("dummy %v not on boundary", p)
		}
	}
	// No duplicates.
	seen := map[geom.Point]bool{}
	for _, p := range pts {
		if seen[p] {
			t.Errorf("duplicate dummy %v", p)
		}
		seen[p] = true
	}
}

func TestOptionsDefaults(t *testing.T) {
	rules := design.DefaultRules()
	o := Options{}.withDefaults(rules)
	if o.ViaPitch <= 0 || o.BoundaryStep <= 0 || o.JitterFrac <= 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
	// Explicit values survive.
	o2 := Options{ViaPitch: 99, BoundaryStep: 11, JitterFrac: 0.3}.withDefaults(rules)
	if o2.ViaPitch != 99 || o2.BoundaryStep != 11 || o2.JitterFrac != 0.3 {
		t.Errorf("explicit options overridden: %+v", o2)
	}
}

func TestVertexKindString(t *testing.T) {
	names := map[VertexKind]string{KindPin: "pin", KindVia: "via", KindBump: "bump", KindDummy: "dummy"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %s, want %s", k, k.String(), want)
		}
	}
}

// TestViaCostScalesLattice checks the via-objective bias on the candidate
// lattice: free vias densify it, expensive vias thin it, and an explicit
// ViaPitch disables the scaling entirely.
func TestViaCostScalesLattice(t *testing.T) {
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	count := func(opt Options) int {
		p, err := Build(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		return len(p.Vias)
	}
	def := count(Options{})
	free := count(Options{ViaCost: -1})
	costly := count(Options{ViaCost: 100 * d.Rules.ViaWidth})
	if free <= def {
		t.Errorf("free vias: %d candidates, want more than default %d", free, def)
	}
	if costly >= def {
		t.Errorf("costly vias: %d candidates, want fewer than default %d", costly, def)
	}
	pinned := count(Options{ViaPitch: 30 * d.Rules.Pitch(), ViaCost: -1})
	if pinned != def {
		t.Errorf("explicit ViaPitch with ViaCost: %d candidates, want default %d", pinned, def)
	}
}

// TestBuildRejectsHugeLattice checks the lattice cap against both ways of
// asking for a huge lattice, tiny design rules and a tiny via pitch: Build
// fails with ErrLatticeTooLarge. On designs under the cap, the count it
// checks bounds what the planner lays.
func TestBuildRejectsHugeLattice(t *testing.T) {
	tiny := mustDesign(t, "dense1")
	r := &tiny.Rules
	r.WireWidth, r.ViaWidth, r.MinSpacing, r.MinTurnDist =
		r.WireWidth*1e-3, r.ViaWidth*1e-3, r.MinSpacing*1e-3, r.MinTurnDist*1e-3
	for _, tc := range []struct {
		name string
		d    *design.Design
		opt  Options
	}{
		{"rules ×1e-3", tiny, Options{}},
		{"via pitch 1e-3 µm", mustDesign(t, "dense1"), Options{ViaPitch: 1e-3}},
	} {
		if _, err := Build(tc.d, tc.opt); !errors.Is(err, ErrLatticeTooLarge) {
			t.Errorf("%s: Build error = %v, want ErrLatticeTooLarge", tc.name, err)
		}
	}

	for _, name := range []string{"dense1", "dense3"} {
		d := mustDesign(t, name)
		for _, viaCost := range []float64{0, -1} {
			opt := Options{ViaCost: viaCost}.withDefaults(d.Rules)
			rng := rand.New(rand.NewSource(1)) // any seed lays as many sites
			laid := 0
			for vl := 0; vl < d.WireLayers-1; vl++ {
				laid += len(latticeSites(d.Outline, opt, rng, vl))
			}
			laid += d.WireLayers * len(boundaryDummies(d.Outline, opt.BoundaryStep))
			if n := latticePoints(d, opt); n < float64(laid) || n > maxLatticePoints {
				t.Errorf("%s, via cost %v: bound %v, laid %d, cap %d", name, viaCost, n, laid, maxLatticePoints)
			}
		}
	}
}
