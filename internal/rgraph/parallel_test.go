package rgraph

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/dt"
	"rdlroute/internal/geom"
	"rdlroute/internal/viaplan"
)

// randomWorkload draws the six designs of cmd/rdlbench's random workload
// (pool seed 1): 2–6 chips, 8–24 nets per channel, 2–3 wire layers.
func randomWorkload(t *testing.T) []*design.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ds := make([]*design.Design, 6)
	for i := range ds {
		spec := design.RandomSpec{
			Seed:           rng.Int63(),
			Chips:          2 + rng.Intn(5),
			NetsPerChannel: 8 + rng.Intn(17),
			WireLayers:     2 + rng.Intn(2),
		}
		d, err := design.GenerateRandom(spec)
		if err != nil {
			t.Fatalf("design %d: %v", i, err)
		}
		ds[i] = d
	}
	return ds
}

// keepOutDesign is dense1 with a keep-out across its routing channel on
// layer 1 only, so one layer takes the chord test and the other does not.
func keepOutDesign(t *testing.T) *design.Design {
	t.Helper()
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	d.Name = "dense1+keep-out"
	if err := d.AddObstacle(design.Obstacle{Name: "cavity", Rect: geom.R(1760, 850, 1900, 1450), Layers: []int{1}}); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAccessLinksAroundKeepOut checks the access-via links tile by tile
// against their definition: corner i of a tile has a link to the opposite
// edge node exactly when it is a via or a pin and the chord between them
// stays clear of every keep-out of the layer.
func TestAccessLinksAroundKeepOut(t *testing.T) {
	d := keepOutDesign(t)
	plan, err := viaplan.Build(d, viaplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(d, plan, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	type corner struct{ layer, tile, vert int }
	has := make(map[corner]bool)
	for _, l := range g.Links {
		if l.Kind == AccessVia {
			has[corner{int(l.Layer), int(l.Tile), int(l.Corner)}] = true
		}
	}
	blocked := 0
	for li := range g.Layers {
		for ti, tile := range g.Layers[li].Tiles {
			for i := 0; i < 3; i++ {
				vn, opp := g.Node(tile.ViaNodes[i]), g.Node(tile.EdgeNodes[(i+1)%3])
				kindOK := vn.VertKind == viaplan.KindVia || vn.VertKind == viaplan.KindPin
				clear := !d.SegmentBlocked(geom.Seg(vn.Pos, opp.Pos), li, d.Rules.Pitch())
				if kindOK && !clear {
					blocked++
				}
				if got := has[corner{li, ti, int(tile.Verts[i])}]; got != (kindOK && clear) {
					t.Fatalf("layer %d tile %d corner %d: access link %v, want %v", li, ti, i, got, kindOK && clear)
				}
			}
		}
	}
	if blocked == 0 {
		t.Fatal("the keep-out blocks no access chord")
	}
}

// TestBuildIdenticalAcrossWorkers pins the parallel build's determinism
// contract: every worker count returns a graph equal to the serial one in
// every field but Opt.Workers — meshes, node and link IDs, capacities,
// tiles, adjacency order and the pin map — on dense1–5, dense1 with a
// keep-out and the six random designs.
func TestBuildIdenticalAcrossWorkers(t *testing.T) {
	var ds []*design.Design
	for _, name := range design.DenseNames() {
		if testing.Short() && (name == "dense4" || name == "dense5") {
			continue
		}
		d, err := design.GenerateDense(name)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	ds = append(ds, keepOutDesign(t))
	ds = append(ds, randomWorkload(t)...)
	for i, d := range ds {
		plan, err := viaplan.Build(d, viaplan.Options{})
		if err != nil {
			t.Fatalf("design %d (%s): %v", i, d.Name, err)
		}
		ref, err := Build(d, plan, Options{Workers: 1})
		if err != nil {
			t.Fatalf("design %d (%s): %v", i, d.Name, err)
		}
		for _, w := range []int{2, 4, 8} {
			g, err := Build(d, plan, Options{Workers: w})
			if err != nil {
				t.Fatalf("design %d (%s), %d workers: %v", i, d.Name, w, err)
			}
			if g.Opt.Workers != w {
				t.Errorf("design %d (%s): Opt.Workers = %d, want %d", i, d.Name, g.Opt.Workers, w)
			}
			g.Opt.Workers = ref.Opt.Workers
			if !reflect.DeepEqual(ref, g) {
				t.Errorf("design %d (%s): %d-worker graph differs from the serial one", i, d.Name, w)
			}
		}
	}
}

// TestBuildErrorIdenticalAcrossWorkers checks that a failed triangulation
// reports the lowest failing layer at every worker count, as a serial
// loop that stops at the first failure would: layer 1 is collinear and
// layer 2 has too few points.
func TestBuildErrorIdenticalAcrossWorkers(t *testing.T) {
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	layer := func(pts ...geom.Point) viaplan.LayerPlan {
		lp := viaplan.LayerPlan{}
		for i, p := range pts {
			lp.Verts = append(lp.Verts, viaplan.Vertex{Kind: viaplan.KindDummy, Ref: i, Pos: p})
		}
		return lp
	}
	plan := &viaplan.Plan{Layers: []viaplan.LayerPlan{
		layer(geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 100), geom.Pt(0, 100)),
		layer(geom.Pt(0, 0), geom.Pt(10, 10), geom.Pt(20, 20), geom.Pt(30, 30)),
		layer(geom.Pt(0, 0), geom.Pt(10, 0)),
	}}
	for i := range plan.Layers {
		plan.Layers[i].Index = i
	}
	const want = "rgraph: layer 1: dt: all points are collinear"
	for _, w := range []int{1, 2, 4, 8} {
		g, err := Build(d, plan, Options{Workers: w})
		if g != nil || err == nil || err.Error() != want || !errors.Is(err, dt.ErrAllCollinear) {
			t.Errorf("%d workers: graph %v, error %v, want %q", w, g != nil, err, want)
		}
	}
}
