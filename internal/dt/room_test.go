package dt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// roomInput is one named triangulation input.
type roomInput struct {
	name string
	pts  []geom.Point
}

// roomInputs returns the inputs the compaction tests triangulate: exact
// lattices, whose 2×2 cells are all cocircular, random clouds, and the
// wire-layer inputs, in plan order, of dense1–5 (dense1–3 under -short)
// and of six random designs.
func roomInputs(t *testing.T) []roomInput {
	t.Helper()
	var in []roomInput
	for _, n := range []int{3, 7, 12, 20} {
		for _, pitch := range []float64{1, 4, 10} {
			var pts []geom.Point
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					pts = append(pts, geom.Pt(float64(i)*pitch, float64(j)*pitch))
				}
			}
			in = append(in, roomInput{fmt.Sprintf("lattice %dx%d pitch %g", n, n, pitch), pts})
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, 50+100*int(seed))
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*2000, rng.Float64()*1000)
		}
		in = append(in, roomInput{fmt.Sprintf("cloud %d", seed), pts})
	}
	for _, name := range design.DenseNames() {
		if testing.Short() && (name == "dense4" || name == "dense5") {
			continue
		}
		d, err := design.GenerateDense(name)
		if err != nil {
			t.Fatal(err)
		}
		for li, pts := range layerPoints(t, d) {
			in = append(in, roomInput{fmt.Sprintf("%s layer %d", name, li), pts})
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		spec := design.RandomSpec{Seed: seed, Chips: 2 + int(seed)%4,
			NetsPerChannel: 6 + 3*int(seed), WireLayers: 2 + int(seed)%2}
		d, err := design.GenerateRandom(spec)
		if err != nil {
			t.Fatal(err)
		}
		for li, pts := range layerPoints(t, d) {
			in = append(in, roomInput{fmt.Sprintf("random %d layer %d", seed, li), pts})
		}
	}
	return in
}

// TestPackedRecordSizes pins the packed working triangle: 28 bytes, where
// int indices took 56.
func TestPackedRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(wtri{}); got != 28 {
		t.Errorf("wtri is %d bytes, want 28", got)
	}
}

// sameMesh reports the first difference between two meshes in their
// vertices, input map, triangles and edge table.
func sameMesh(a, b *Mesh) error {
	switch {
	case !slices.Equal(a.Points, b.Points):
		return fmt.Errorf("points differ")
	case !slices.Equal(a.InputVertex, b.InputVertex):
		return fmt.Errorf("input vertices differ")
	case !slices.Equal(a.Tris, b.Tris):
		return fmt.Errorf("triangles differ")
	case !slices.Equal(a.Edges(), b.Edges()):
		return fmt.Errorf("edges differ")
	}
	for ei := range a.Edges() {
		if a.EdgeTris(ei) != b.EdgeTris(ei) {
			return fmt.Errorf("edge %d: triangles %v and %v", ei, a.EdgeTris(ei), b.EdgeTris(ei))
		}
	}
	for ti := range a.Tris {
		for i := 0; i < 3; i++ {
			if a.TriEdge(ti, i) != b.TriEdge(ti, i) {
				return fmt.Errorf("triangle %d side %d: edges %d and %d", ti, i, a.TriEdge(ti, i), b.TriEdge(ti, i))
			}
		}
	}
	return nil
}

// TestCompactionKeepsMesh compares meshes built in rooms that compact at
// every insertion, compact whenever fewer than roomSlack slots are free
// of a room that starts at one slot and grows, and compact as Triangulate
// does, with a room that never compacts. Compaction keeps the live
// triangles in slot order, so every triangle number, edge number and
// neighbour stays the same.
func TestCompactionKeepsMesh(t *testing.T) {
	rooms := []struct {
		name  string
		room  func(n int) int
		slack int
	}{
		{"every insertion", workRoom, math.MaxInt},
		{"one-slot room", func(int) int { return 1 }, roomSlack},
		{"default", workRoom, roomSlack},
	}
	for _, in := range roomInputs(t) {
		name, pts := in.name, in.pts
		ref, err := triangulate(pts, workRoom, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ref.CheckTopology(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range rooms {
			m, err := triangulate(pts, r.room, r.slack)
			if err != nil {
				t.Fatalf("%s, %s: %v", name, r.name, err)
			}
			if err := sameMesh(m, ref); err != nil {
				t.Errorf("%s, %s: %v", name, r.name, err)
			}
		}
	}
}

// liveOrder returns bw's live triangles in slot order, each neighbour
// index replaced by that neighbour's rank among the live triangles, and
// the walk hint's rank. A dead triangle's rank is -2, so -1 still means no
// neighbour. Compaction only drops dead slots, so it must leave this view
// as it was. rank and live are reused.
func liveOrder(bw *bowyerWatson, rank []int32, live []wtri) ([]int32, []wtri, int32) {
	rank = slices.Grow(rank[:0], len(bw.tris))[:len(bw.tris)]
	live = live[:0]
	for i, tr := range bw.tris {
		rank[i] = -2
		if tr.alive {
			rank[i] = int32(len(live))
			live = append(live, tr)
		}
	}
	for i := range live {
		for j, nb := range live[i].n {
			if nb != -1 {
				live[i].n[j] = rank[nb]
			}
		}
	}
	return rank, live, rank[bw.lastTri]
}

// TestCompactionKeepsLiveOrder compacts the room after every insertion
// and checks that compact changes nothing but the slot numbers: the live
// triangles keep their order, their neighbours and the walk hint. Before
// each compaction it checks what compact relies on: the walk hint and
// every live triangle's neighbours are live, so the old→new table covers
// every index it remaps. Last, Triangulate's room must hold each input
// without growing.
func TestCompactionKeepsLiveOrder(t *testing.T) {
	deadNeighbour := func(tr wtri) bool { return slices.Contains(tr.n[:], -2) }
	var rank []int32
	var before, after []wtri
	var hintBefore, hintAfter int32
	for _, in := range roomInputs(t) {
		bw := newBowyerWatson(in.pts, workRoom, 0)
		for v := 0; v < bw.nReal; v++ {
			if err := bw.insert(int32(v)); err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			rank, before, hintBefore = liveOrder(bw, rank, before)
			if hintBefore < 0 || slices.ContainsFunc(before, deadNeighbour) {
				t.Fatalf("%s: after inserting vertex %d the walk hint or a live triangle's neighbour is dead", in.name, v)
			}
			bw.compact()
			rank, after, hintAfter = liveOrder(bw, rank, after)
			if len(after) != len(bw.tris) || !slices.Equal(before, after) || hintBefore != hintAfter {
				t.Fatalf("%s: compacting after vertex %d changed the live triangles or the walk hint (%d, was %d)",
					in.name, v, hintAfter, hintBefore)
			}
		}
		bw = newBowyerWatson(in.pts, workRoom, roomSlack)
		if err := bw.run(); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if got, want := cap(bw.tris), workRoom(bw.nReal); got != want {
			t.Errorf("%s: room grew from %d to %d triangles", in.name, want, got)
		}
	}
}

// TestNearDuplicateMerged pins that a point within the predicates'
// tolerance of an earlier vertex, but not equal to it, is merged onto that
// vertex instead of leaving it in no triangle.
func TestNearDuplicateMerged(t *testing.T) {
	var lattice []geom.Point
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			lattice = append(lattice, geom.Pt(float64(i)*4, float64(j)*4))
		}
	}
	want, err := Triangulate(lattice)
	if err != nil {
		t.Fatal(err)
	}
	near := geom.Pt(8+1e-12, 8) // vertex 22 is (8, 8)
	m, err := Triangulate(append(slices.Clone(lattice), near))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckTopology(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Fatal(err)
	}
	if len(m.Points) != 100 || m.InputVertex[100] != 22 {
		t.Fatalf("%d points, near point on vertex %d; want 100 points, vertex 22", len(m.Points), m.InputVertex[100])
	}
	if !slices.Equal(m.Tris, want.Tris) {
		t.Error("merged mesh differs from the lattice's")
	}

	// Near point first: the lattice point is merged onto it (vertex 0), the
	// lattice points before it keep vertex i+1, and those after it move
	// down to vertex i.
	m, err = Triangulate(append([]geom.Point{near}, lattice...))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckTopology(); err != nil {
		t.Fatal(err)
	}
	if len(m.Points) != 100 || len(m.Tris) != len(want.Tris) {
		t.Fatalf("%d points, %d triangles; want 100 and %d", len(m.Points), len(m.Tris), len(want.Tris))
	}
	for i := range lattice {
		want := i + 1
		switch {
		case i == 22:
			want = 0
		case i > 22:
			want = i
		}
		if got := m.InputVertex[1+i]; got != want {
			t.Fatalf("lattice point %d on vertex %d, want %d", i, got, want)
		}
	}
}

// TestCheckTopologyFindsOrphanVertex pins that a vertex in no triangle is a
// topology error.
func TestCheckTopologyFindsOrphanVertex(t *testing.T) {
	m, err := Triangulate([]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)})
	if err != nil {
		t.Fatal(err)
	}
	m.Points = append(m.Points, geom.Pt(20, 20))
	if err := m.CheckTopology(); err == nil {
		t.Fatal("CheckTopology passed a vertex in no triangle")
	}
}
