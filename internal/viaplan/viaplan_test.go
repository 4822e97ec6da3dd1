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
	p1, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Build(d, Options{})
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

func TestVertexKindString(t *testing.T) {
	names := map[VertexKind]string{KindPin: "pin", KindVia: "via", KindBump: "bump", KindDummy: "dummy"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %s, want %s", k, k.String(), want)
		}
	}
}

// TestViaCostScalesLattice checks the via-objective bias on the candidate
// lattice: free vias densify it and expensive vias thin it.
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
}

// TestBuildRejectsHugeLattice checks the lattice cap: dense1 with every
// rule ×1e-3 asks for a huge lattice, and Build fails with
// ErrLatticeTooLarge. On designs under the cap, the count it checks bounds
// what the planner lays.
func TestBuildRejectsHugeLattice(t *testing.T) {
	tiny := mustDesign(t, "dense1")
	r := &tiny.Rules
	r.WireWidth, r.ViaWidth, r.MinSpacing, r.MinTurnDist =
		r.WireWidth*1e-3, r.ViaWidth*1e-3, r.MinSpacing*1e-3, r.MinTurnDist*1e-3
	if _, err := Build(tiny, Options{}); !errors.Is(err, ErrLatticeTooLarge) {
		t.Errorf("rules ×1e-3: Build error = %v, want ErrLatticeTooLarge", err)
	}

	for _, name := range []string{"dense1", "dense3"} {
		d := mustDesign(t, name)
		for _, viaCost := range []float64{0, -1} {
			pitch := Options{ViaCost: viaCost}.pitch(d.Rules)
			rng := rand.New(rand.NewSource(1)) // any seed lays as many sites
			laid := 0
			for vl := 0; vl < d.WireLayers-1; vl++ {
				laid += len(latticeSites(d.Outline, pitch, rng, vl))
			}
			laid += d.WireLayers * len(boundaryDummies(d.Outline, dummyStepPitches*pitch))
			if n := latticePoints(d, pitch); n < float64(laid) || n > maxLatticePoints {
				t.Errorf("%s, via cost %v: bound %v, laid %d, cap %d", name, viaCost, n, laid, maxLatticePoints)
			}
		}
	}
}
