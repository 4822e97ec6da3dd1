package dt

import (
	"fmt"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/viaplan"
)

// refEdgeTable is the map construction the flat edge table replaced: edges
// numbered in the order a scan over the triangles and their sides first
// meets them, and each edge's triangles in the order the scan meets them.
func refEdgeTable(m *Mesh) ([]Edge, map[Edge][2]int) {
	var edges []Edge
	edgeTris := make(map[Edge][2]int)
	for ti, t := range m.Tris {
		for j := 0; j < 3; j++ {
			e := MakeEdge(t.V[j], t.V[(j+1)%3])
			cur, ok := edgeTris[e]
			if !ok {
				edgeTris[e] = [2]int{ti, -1}
				edges = append(edges, e)
				continue
			}
			if cur[0] != ti && cur[1] == -1 {
				cur[1] = ti
				edgeTris[e] = cur
			}
		}
	}
	return edges, edgeTris
}

// checkEdgeTable compares Edges, EdgeTris and TriEdge with the reference.
func checkEdgeTable(t *testing.T, name string, m *Mesh) {
	t.Helper()
	edges, edgeTris := refEdgeTable(m)
	if len(m.Edges()) != len(edges) {
		t.Fatalf("%s: %d edges, reference has %d", name, len(m.Edges()), len(edges))
	}
	for ei, e := range edges {
		if m.Edges()[ei] != e {
			t.Fatalf("%s: edge %d is %v, reference %v", name, ei, m.Edges()[ei], e)
		}
		if got := m.EdgeTris(ei); got != edgeTris[e] {
			t.Fatalf("%s: edge %d %v has triangles %v, reference %v", name, ei, e, got, edgeTris[e])
		}
	}
	for ti, tri := range m.Tris {
		for i := 0; i < 3; i++ {
			if got, want := edges[m.TriEdge(ti, i)], MakeEdge(tri.V[i], tri.V[(i+1)%3]); got != want {
				t.Fatalf("%s: triangle %d side %d maps to %v, want %v", name, ti, i, got, want)
			}
		}
	}
}

// layerPoints returns the triangulation input of every wire layer of a
// design's via plan, in plan order.
func layerPoints(t *testing.T, d *design.Design) [][]geom.Point {
	t.Helper()
	plan, err := viaplan.Build(d, viaplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]geom.Point
	for _, lp := range plan.Layers {
		pts := make([]geom.Point, len(lp.Verts))
		for i, v := range lp.Verts {
			pts[i] = v.Pos
		}
		out = append(out, pts)
	}
	return out
}

// layerMeshes triangulates every wire layer of a design's via plan.
func layerMeshes(t *testing.T, d *design.Design) []*Mesh {
	t.Helper()
	var out []*Mesh
	for _, pts := range layerPoints(t, d) {
		m, err := Triangulate(pts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

func TestEdgeTableMatchesMapConstruction(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		for _, name := range design.DenseNames() {
			d, err := design.GenerateDense(name)
			if err != nil {
				t.Fatal(err)
			}
			for li, m := range layerMeshes(t, d) {
				checkEdgeTable(t, fmt.Sprintf("%s layer %d", name, li), m)
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 6; seed++ {
			spec := design.RandomSpec{Seed: seed, Chips: 2 + int(seed)%4,
				NetsPerChannel: 6 + 3*int(seed), WireLayers: 2 + int(seed)%2}
			d, err := design.GenerateRandom(spec)
			if err != nil {
				t.Fatal(err)
			}
			for li, m := range layerMeshes(t, d) {
				checkEdgeTable(t, fmt.Sprintf("seed %d layer %d", seed, li), m)
			}
		}
	})
	t.Run("lattice", func(t *testing.T) {
		// Every 2×2 cell of an exact lattice is cocircular.
		var pts []geom.Point
		for i := 0; i < 12; i++ {
			for j := 0; j < 12; j++ {
				pts = append(pts, geom.Pt(float64(i)*10, float64(j)*10))
			}
		}
		m, err := Triangulate(pts)
		if err != nil {
			t.Fatal(err)
		}
		checkEdgeTable(t, "lattice", m)
	})
	t.Run("notch", func(t *testing.T) {
		// Two interior points hug the bottom hull edge. Their slivers'
		// circumcircles reach past the super-triangle, so Bowyer–Watson
		// leaves notches that repairHull fills.
		pts := []geom.Point{
			geom.Pt(0, 0), geom.Pt(1000, 0), geom.Pt(300, 0.5), geom.Pt(700, 0.5),
			geom.Pt(500, 300), geom.Pt(200, 100), geom.Pt(800, 150),
		}
		bw := newBowyerWatson(pts, workRoom, roomSlack)
		if err := bw.run(); err != nil {
			t.Fatal(err)
		}
		before := 0
		for _, tr := range bw.tris {
			if tr.alive && int(max(tr.v[0], tr.v[1], tr.v[2])) < bw.nReal {
				before++
			}
		}
		m, err := bw.finish()
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Tris) <= before {
			t.Fatalf("repairHull filled nothing: %d triangles before, %d after", before, len(m.Tris))
		}
		if err := m.CheckTopology(); err != nil {
			t.Fatal(err)
		}
		checkEdgeTable(t, "notch", m)
	})
}
