package dt

import (
	"math"
	"math/rand"
	"testing"

	"rdlroute/internal/geom"
)

func TestTriangulateSquare(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10),
	}
	m, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tris) != 2 {
		t.Fatalf("square should triangulate into 2 triangles, got %d", len(m.Tris))
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Error(err)
	}
	if err := m.CheckTopology(); err != nil {
		t.Error(err)
	}
	// The two triangles must share exactly one (diagonal) edge.
	shared := 0
	for ei := range m.Edges() {
		if m.EdgeTris(ei)[1] != -1 {
			shared++
		}
	}
	if shared != 1 {
		t.Errorf("shared edges = %d, want 1", shared)
	}
}

func TestTriangulateWithInteriorPoint(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10),
		geom.Pt(5, 5),
	}
	m, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tris) != 4 {
		t.Fatalf("got %d triangles, want 4", len(m.Tris))
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Error(err)
	}
	if err := m.CheckTopology(); err != nil {
		t.Error(err)
	}
	// The interior point is incident to all 4 triangles.
	incident := 0
	for _, tri := range m.Tris {
		if tri.V[0] == 4 || tri.V[1] == 4 || tri.V[2] == 4 {
			incident++
		}
	}
	if incident != 4 {
		t.Errorf("interior vertex incident to %d triangles, want 4", incident)
	}
}

func TestTriangulateErrors(t *testing.T) {
	if _, err := Triangulate(nil); err != ErrTooFewPoints {
		t.Errorf("nil input: err = %v", err)
	}
	if _, err := Triangulate([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}); err != ErrTooFewPoints {
		t.Errorf("2 points: err = %v", err)
	}
	// Duplicates of the same point collapse below the minimum.
	if _, err := Triangulate([]geom.Point{geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(1, 1)}); err != ErrTooFewPoints {
		t.Errorf("duplicated 2 points: err = %v", err)
	}
	// Collinear points have no triangulation.
	col := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)}
	if _, err := Triangulate(col); err != ErrAllCollinear {
		t.Errorf("collinear: err = %v", err)
	}
}

func TestTriangulateDuplicates(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 8),
		geom.Pt(0, 0), // duplicate of input 0
	}
	m, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Points) != 3 {
		t.Errorf("deduped points = %d, want 3", len(m.Points))
	}
	if m.InputVertex[3] != m.InputVertex[0] {
		t.Error("duplicate input must map to the same vertex")
	}
	if len(m.Tris) != 1 {
		t.Errorf("triangles = %d, want 1", len(m.Tris))
	}
}

// withCopies returns pts with exact copies inserted at random positions:
// of the first point, of every hull point and of random points.
func withCopies(rng *rand.Rand, pts []geom.Point) []geom.Point {
	copies := []geom.Point{pts[0], pts[0]}
	copies = append(copies, geom.ConvexHull(pts)...)
	for range 1 + len(pts)/8 {
		copies = append(copies, pts[rng.Intn(len(pts))])
	}
	out := append([]geom.Point(nil), pts...)
	for _, c := range copies {
		at := rng.Intn(len(out) + 1)
		out = append(out[:at], append([]geom.Point{c}, out[at:]...)...)
	}
	return out
}

// TestExactCopiesMatchDeduplicatedMesh checks the merge of exact copies
// against the mesh of the de-duplicated input: the same vertices,
// triangles and edge tables, and every input maps to the vertex of its
// first occurrence. Inputs that cannot be triangulated fail the same way
// with copies.
func TestExactCopiesMatchDeduplicatedMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var inputs [][]geom.Point
	for _, n := range []int{3, 7, 12} {
		for _, pitch := range []float64{1, 4} {
			var pts []geom.Point
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					pts = append(pts, geom.Pt(float64(i)*pitch, float64(j)*pitch))
				}
			}
			inputs = append(inputs, pts)
		}
	}
	for range 24 {
		pts := make([]geom.Point, 3+rng.Intn(200))
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*2000, rng.Float64()*1000)
		}
		inputs = append(inputs, pts)
	}
	for k, pts := range inputs {
		in := withCopies(rng, pts)
		first := map[geom.Point]int{}
		var dedup []geom.Point
		for _, p := range in {
			if _, ok := first[p]; !ok {
				first[p] = len(dedup)
				dedup = append(dedup, p)
			}
		}
		want, err := Triangulate(dedup)
		if err != nil {
			t.Fatalf("input %d: %v", k, err)
		}
		got, err := Triangulate(in)
		if err != nil {
			t.Fatalf("input %d with copies: %v", k, err)
		}
		for i, p := range in {
			if got.InputVertex[i] != want.InputVertex[first[p]] {
				t.Fatalf("input %d: point %d maps to vertex %d, its first occurrence to %d",
					k, i, got.InputVertex[i], want.InputVertex[first[p]])
			}
		}
		got.InputVertex = want.InputVertex
		if err := sameMesh(got, want); err != nil {
			t.Fatalf("input %d: %v", k, err)
		}
	}

	p, q, r := geom.Pt(1, 2), geom.Pt(5, 2), geom.Pt(3, 7)
	for _, c := range []struct {
		name string
		pts  []geom.Point
		err  error
	}{
		{"all identical", []geom.Point{p, p, p, p, p}, ErrTooFewPoints},
		{"two distinct", []geom.Point{p, q, p, q, q, p}, ErrTooFewPoints},
		{"one copy short of three", []geom.Point{p, p, q}, ErrTooFewPoints},
		{"collinear with copies", []geom.Point{p, q, geom.Pt(3, 2), q, p, geom.Pt(9, 2)}, ErrAllCollinear},
	} {
		if _, err := Triangulate(c.pts); err != c.err {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.err)
		}
	}
	if m, err := Triangulate([]geom.Point{p, q, p, r, q, r}); err != nil || len(m.Points) != 3 || len(m.Tris) != 1 {
		t.Errorf("triangle with copies: %v", err)
	}
}

func TestEulerFormula(t *testing.T) {
	// For a triangulation of a point set whose hull has h vertices:
	// triangles = 2n − h − 2, edges = 3n − h − 3.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(80)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		m, err := Triangulate(pts)
		if err != nil {
			t.Fatal(err)
		}
		// Count hull vertices as boundary edges of the mesh (each hull
		// vertex begins exactly one boundary edge); this includes points
		// collinear on hull edges, which geom.ConvexHull drops.
		h := 0
		for ei := range m.Edges() {
			if m.EdgeTris(ei)[1] == -1 {
				h++
			}
		}
		nv := len(m.Points)
		wantTris := 2*nv - h - 2
		wantEdges := 3*nv - h - 3
		if len(m.Tris) != wantTris {
			t.Errorf("trial %d: triangles = %d, want %d (n=%d h=%d)", trial, len(m.Tris), wantTris, nv, h)
		}
		if got := len(m.Edges()); got != wantEdges {
			t.Errorf("trial %d: edges = %d, want %d", trial, got, wantEdges)
		}
	}
}

func TestDelaunayPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(60)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*500, rng.Float64()*500)
		}
		m, err := Triangulate(pts)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CheckDelaunay(); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
		if err := m.CheckTopology(); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

func TestRegularGrid(t *testing.T) {
	// Regular grids are the adversarial case: every 2x2 cell is exactly
	// cocircular. The tolerant predicate must still produce a valid mesh.
	var pts []geom.Point
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			pts = append(pts, geom.Pt(float64(i)*10, float64(j)*10))
		}
	}
	m, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckTopology(); err != nil {
		t.Fatal(err)
	}
	// Euler check (hull of an 8x8 grid has 28 boundary vertices).
	wantTris := 2*64 - 28 - 2
	if len(m.Tris) != wantTris {
		t.Errorf("grid triangles = %d, want %d", len(m.Tris), wantTris)
	}
	// Total mesh area must equal the grid extent.
	var area float64
	for _, tri := range m.Tris {
		area += math.Abs(geom.SignedArea2(m.Points[tri.V[0]], m.Points[tri.V[1]], m.Points[tri.V[2]])) / 2
	}
	if math.Abs(area-70*70) > 1e-6 {
		t.Errorf("mesh area = %v, want 4900", area)
	}
}

func TestPointOnEdgeInsertion(t *testing.T) {
	// The fifth point lies exactly on the diagonal shared edge of the first
	// four, exercising the on-edge cavity path.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10),
		geom.Pt(5, 5), geom.Pt(2.5, 2.5),
	}
	m, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckTopology(); err != nil {
		t.Error(err)
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Error(err)
	}
	if len(m.Points) != 6 {
		t.Errorf("points = %d, want 6", len(m.Points))
	}
}

func TestEdgeQueriesAndOppositeVertex(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)}
	m, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	for ei, e := range m.Edges() {
		ts := m.EdgeTris(ei)
		if ts[0] == -1 {
			t.Fatalf("edge %v has no triangle", e)
		}
		v, ok := m.OppositeVertex(ts[0], e)
		if !ok {
			t.Fatalf("OppositeVertex failed for %v", e)
		}
		if v == e.A || v == e.B {
			t.Errorf("opposite vertex %d on the edge %v", v, e)
		}
	}
	if _, ok := m.OppositeVertex(0, MakeEdge(98, 99)); ok {
		t.Error("OppositeVertex on foreign edge should fail")
	}
}

func TestMakeEdgeNormalization(t *testing.T) {
	if MakeEdge(5, 2) != (Edge{A: 2, B: 5}) {
		t.Error("MakeEdge should order endpoints")
	}
	if MakeEdge(2, 5) != MakeEdge(5, 2) {
		t.Error("MakeEdge not symmetric")
	}
}

func TestClusteredPoints(t *testing.T) {
	// Tight clusters mimic via escape patterns around pads.
	rng := rand.New(rand.NewSource(5))
	var pts []geom.Point
	for c := 0; c < 6; c++ {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		for i := 0; i < 15; i++ {
			pts = append(pts, geom.Pt(cx+rng.Float64()*5, cy+rng.Float64()*5))
		}
	}
	m, err := Triangulate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckTopology(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Error(err)
	}
}

func BenchmarkTriangulate1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 1000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*5000, rng.Float64()*5000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Triangulate(pts); err != nil {
			b.Fatal(err)
		}
	}
}
