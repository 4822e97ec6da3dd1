package dt

import (
	"errors"
	"math"
	"sort"

	"rdlroute/internal/geom"
)

// wtri is a working triangle during incremental construction.
type wtri struct {
	v     [3]int
	n     [3]int // neighbour across edge opposite v[i]; -1 = none
	alive bool
}

type bowyerWatson struct {
	pts      []geom.Point // deduped input points + 3 super vertices at the end
	inputIdx []int        // input index -> vertex index
	nReal    int          // number of real (non-super) vertices
	tris     []wtri
	lastTri  int // walk hint

	// Scratch reused across insertions. A triangle is in the current
	// insertion's cavity when its badStamp equals stamp; badStamp grows with
	// tris, and new triangles start at 0, which no insertion's stamp is.
	badStamp []int32
	stamp    int32
	cavity   []int
	boundary []boundaryEdge
	stack    []int
}

// trisPerVertex sizes the working triangle slice. Inserting the dense
// benchmarks' layers in plan order creates 8–13 triangles per vertex, and
// dead slots are never reused: reuse would renumber the mesh.
const trisPerVertex = 12

func newBowyerWatson(points []geom.Point) *bowyerWatson {
	bw := &bowyerWatson{
		pts:      make([]geom.Point, 0, len(points)+3),
		cavity:   make([]int, 0, 64),
		boundary: make([]boundaryEdge, 0, 64),
		stack:    make([]int, 0, 64),
	}
	seen := make(map[geom.Point]int, len(points))
	bw.inputIdx = make([]int, len(points))
	for i, p := range points {
		if j, ok := seen[p]; ok {
			bw.inputIdx[i] = j
			continue
		}
		idx := len(bw.pts)
		seen[p] = idx
		bw.pts = append(bw.pts, p)
		bw.inputIdx[i] = idx
	}
	bw.nReal = len(bw.pts)

	// Append an enclosing super-triangle far outside the data.
	var r geom.Rect
	if bw.nReal > 0 {
		r = geom.BoundingRect(bw.pts)
	}
	size := math.Max(r.W(), r.H())
	if size <= 0 {
		size = 1
	}
	c := r.Center()
	m := 64 * size
	bw.pts = append(bw.pts,
		geom.Pt(c.X-2*m, c.Y-m),
		geom.Pt(c.X+2*m, c.Y-m),
		geom.Pt(c.X, c.Y+2*m),
	)
	s0, s1, s2 := bw.nReal, bw.nReal+1, bw.nReal+2
	bw.tris = make([]wtri, 1, trisPerVertex*bw.nReal+1)
	bw.tris[0] = wtri{v: [3]int{s0, s1, s2}, n: [3]int{-1, -1, -1}, alive: true}
	bw.badStamp = make([]int32, 1, cap(bw.tris))
	// pts[] for super triangle chosen CCW already: (-2m,-m),(2m,-m),(0,2m).
	return bw
}

// errDegenerate signals an insertion the algorithm could not complete.
var errDegenerate = errors.New("dt: degenerate configuration during insertion")

func (bw *bowyerWatson) run() error {
	for v := 0; v < bw.nReal; v++ {
		if err := bw.insert(v); err != nil {
			return err
		}
	}
	return nil
}

// locate walks from the hint triangle toward p and returns the index of an
// alive triangle containing p.
func (bw *bowyerWatson) locate(p geom.Point) int {
	t := bw.lastTri
	if t < 0 || t >= len(bw.tris) || !bw.tris[t].alive {
		t = -1
		for i := len(bw.tris) - 1; i >= 0; i-- {
			if bw.tris[i].alive {
				t = i
				break
			}
		}
		if t == -1 {
			return -1
		}
	}
	maxSteps := 4 * (len(bw.tris) + 16)
	for step := 0; step < maxSteps; step++ {
		tr := &bw.tris[t]
		moved := false
		for i := 0; i < 3; i++ {
			a := bw.pts[tr.v[(i+1)%3]]
			b := bw.pts[tr.v[(i+2)%3]]
			if geom.Orient(a, b, p) == geom.Clockwise {
				nb := tr.n[i]
				if nb == -1 {
					// p outside the hull across this edge: cannot happen
					// inside the super-triangle; fall through to scan.
					moved = false
					break
				}
				t = nb
				moved = true
				break
			}
		}
		if !moved {
			return t
		}
	}
	// Walk failed (cycling on degeneracies): brute-force scan.
	for i, tr := range bw.tris {
		if !tr.alive {
			continue
		}
		if geom.PointInTriangle(p, bw.pts[tr.v[0]], bw.pts[tr.v[1]], bw.pts[tr.v[2]]) {
			return i
		}
	}
	return -1
}

type boundaryEdge struct {
	a, b    int // directed per the dead triangle's CCW winding
	outside int // triangle index across the edge, or -1
}

func (bw *bowyerWatson) insert(v int) error {
	p := bw.pts[v]
	seed := bw.locate(p)
	if seed == -1 {
		return errDegenerate
	}

	// Grow the cavity: connected triangles whose circumcircle contains p.
	bw.stamp++
	bw.cavity = bw.cavity[:0]
	bw.addToCavity(seed)
	bw.stack = append(bw.stack[:0], seed)
	// If p lies on an edge of the seed triangle, the neighbour across that
	// edge must join the cavity even when the tolerant in-circle predicate
	// says "on the boundary, not inside".
	st := bw.tris[seed]
	for i := 0; i < 3; i++ {
		a := bw.pts[st.v[(i+1)%3]]
		b := bw.pts[st.v[(i+2)%3]]
		if geom.Orient(a, b, p) == geom.Collinear && st.n[i] != -1 && !bw.inCavity(st.n[i]) {
			bw.addToCavity(st.n[i])
			bw.stack = append(bw.stack, st.n[i])
		}
	}
	for len(bw.stack) > 0 {
		t := bw.stack[len(bw.stack)-1]
		bw.stack = bw.stack[:len(bw.stack)-1]
		tr := bw.tris[t]
		for i := 0; i < 3; i++ {
			nb := tr.n[i]
			if nb == -1 || bw.inCavity(nb) {
				continue
			}
			nt := bw.tris[nb]
			if geom.InCircle(bw.pts[nt.v[0]], bw.pts[nt.v[1]], bw.pts[nt.v[2]], p) {
				bw.addToCavity(nb)
				bw.stack = append(bw.stack, nb)
			}
		}
	}

	// Collect boundary edges, forcing neighbours into the cavity when p is
	// exactly collinear with a boundary edge (which would otherwise create a
	// zero-area triangle). The cavity is walked in sorted index order so the
	// resulting triangle numbering — and with it every downstream node ID —
	// is deterministic run to run.
	for guard := 0; guard < len(bw.tris)+8; guard++ {
		sort.Ints(bw.cavity)
		bw.boundary = bw.boundary[:0]
		grew := false
		for _, t := range bw.cavity {
			tr := bw.tris[t]
			for i := 0; i < 3; i++ {
				nb := tr.n[i]
				if nb != -1 && bw.inCavity(nb) {
					continue
				}
				a, b := tr.v[(i+1)%3], tr.v[(i+2)%3]
				if geom.Orient(bw.pts[a], bw.pts[b], p) == geom.Collinear {
					if nb == -1 {
						return errDegenerate
					}
					bw.addToCavity(nb)
					grew = true
					break
				}
				bw.boundary = append(bw.boundary, boundaryEdge{a: a, b: b, outside: nb})
			}
			if grew {
				break
			}
		}
		if !grew {
			break
		}
	}
	boundary := bw.boundary
	if len(boundary) < 3 {
		return errDegenerate
	}

	// Kill cavity triangles.
	for _, t := range bw.cavity {
		bw.tris[t].alive = false
	}

	// Create the fan of new triangles around p, one per boundary edge in
	// boundary order, and stitch adjacency.
	first := len(bw.tris)
	for _, be := range boundary {
		idx := len(bw.tris)
		// Vertices [p, a, b]: CCW because the dead triangle was CCW and p
		// lies on its interior side of a→b.
		bw.tris = append(bw.tris, wtri{
			v:     [3]int{v, be.a, be.b},
			n:     [3]int{be.outside, -1, -1},
			alive: true,
		})
		bw.badStamp = append(bw.badStamp, 0)
		// Fix the outside triangle's back pointer.
		if be.outside != -1 {
			ot := &bw.tris[be.outside]
			for i := 0; i < 3; i++ {
				if ot.n[i] != -1 && bw.inCavity(ot.n[i]) {
					// Check this slot is the shared edge (a,b).
					oa, ob := ot.v[(i+1)%3], ot.v[(i+2)%3]
					if (oa == be.a && ob == be.b) || (oa == be.b && ob == be.a) {
						ot.n[i] = idx
					}
				}
			}
		}
	}
	// Link new triangles to each other across the spoke edges (p, x). For
	// triangle [p, a, b]: edge opposite a is (b, p) — shared with the new
	// triangle whose boundary edge starts at b; edge opposite b is (p, a) —
	// shared with the one whose boundary edge ends at a.
	for i := first; i < len(bw.tris); i++ {
		tr := &bw.tris[i]
		a, b := tr.v[1], tr.v[2]
		for j, be := range boundary {
			if be.a == b { // triangle [p, b, x] shares edge (p, b)
				tr.n[1] = first + j
			}
			if be.b == a { // triangle [p, x, a] shares edge (p, a)
				tr.n[2] = first + j
			}
		}
	}
	bw.lastTri = first
	return nil
}

// inCavity reports whether triangle t is in the current insertion's cavity.
func (bw *bowyerWatson) inCavity(t int) bool { return bw.badStamp[t] == bw.stamp }

// addToCavity marks triangle t as part of the current insertion's cavity.
func (bw *bowyerWatson) addToCavity(t int) {
	bw.badStamp[t] = bw.stamp
	bw.cavity = append(bw.cavity, t)
}

// repairHull fills concave notches on the mesh boundary. A finite
// super-triangle cannot stand in for points at infinity: a near-collinear
// hull sliver whose circumcircle reaches beyond the super vertices
// triangulates against them instead of forming the sliver, and removing the
// super triangles then leaves a notch. The notch region's only vertices are
// on its rim, so ear-filling it restores exactly the hull coverage the true
// Delaunay triangulation has.
func repairHull(m *Mesh) {
	for guard := 0; guard < len(m.Points)+8; guard++ {
		loop := boundaryLoop(m)
		if len(loop) < 4 {
			return
		}
		filled := false
		n := len(loop)
		for i := 0; i < n; i++ {
			a, b, c := loop[i], loop[(i+1)%n], loop[(i+2)%n]
			// The loop runs with the interior on its left; a clockwise turn
			// at b is a concave notch.
			if geom.Orient(m.Points[a], m.Points[b], m.Points[c]) != geom.Clockwise {
				continue
			}
			// Ear check: no other boundary vertex inside the candidate.
			ok := true
			for _, v := range loop {
				if v == a || v == b || v == c {
					continue
				}
				if geom.PointInTriangle(m.Points[v], m.Points[a], m.Points[b], m.Points[c]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// (a, c, b) is counterclockwise since (a, b, c) turned clockwise.
			m.Tris = append(m.Tris, Triangle{V: [3]int{a, c, b}})
			filled = true
			break
		}
		if !filled {
			return
		}
		m.rebuildNeighbours()
	}
}

// boundaryLoop returns the mesh boundary as an ordered vertex cycle with the
// interior on its left, or nil when the boundary is not a single simple
// loop.
func boundaryLoop(m *Mesh) []int {
	next := make([]int, len(m.Points)) // boundary successor, or -1
	for i := range next {
		next[i] = -1
	}
	start, edges := -1, 0
	for _, t := range m.Tris {
		for i := 0; i < 3; i++ {
			if t.N[i] != -1 {
				continue
			}
			from := t.V[(i+1)%3]
			if next[from] != -1 {
				return nil // non-manifold boundary; leave untouched
			}
			next[from] = t.V[(i+2)%3]
			start = from
			edges++
		}
	}
	if start == -1 {
		return nil
	}
	loop := make([]int, 1, edges)
	loop[0] = start
	for v := next[start]; v != start; v = next[v] {
		if v == -1 || len(loop) == edges {
			return nil // broken cycle
		}
		loop = append(loop, v)
	}
	if len(loop) != edges {
		return nil // multiple loops
	}
	return loop
}

// rebuildNeighbours recomputes the neighbour links from the triangle vertex
// lists. Only hull repair needs it: Bowyer–Watson maintains the links
// itself.
func (m *Mesh) rebuildNeighbours() {
	edgeTris := make(map[Edge][2]int, 3*len(m.Tris)/2)
	for ti, t := range m.Tris {
		for j := 0; j < 3; j++ {
			e := MakeEdge(t.V[j], t.V[(j+1)%3])
			if cur, ok := edgeTris[e]; ok {
				if cur[0] != ti && cur[1] == -1 {
					cur[1] = ti
					edgeTris[e] = cur
				}
			} else {
				edgeTris[e] = [2]int{ti, -1}
			}
		}
	}
	for ti := range m.Tris {
		t := &m.Tris[ti]
		for i := 0; i < 3; i++ {
			ts := edgeTris[MakeEdge(t.V[(i+1)%3], t.V[(i+2)%3])]
			switch {
			case ts[0] == ti:
				t.N[i] = ts[1]
			case ts[1] == ti:
				t.N[i] = ts[0]
			default:
				t.N[i] = -1
			}
		}
	}
}

// buildEdges numbers the mesh edges from the neighbour links, in the order
// a scan over the triangles and their sides first meets them. Side i of
// triangle t joins V[i] and V[(i+1)%3] and lies opposite V[(i+2)%3], so
// its neighbour across is N[(i+2)%3]; the edge is new at t unless that
// neighbour comes earlier, in which case it already numbered the edge.
func (m *Mesh) buildEdges() {
	nt := len(m.Tris)
	// Euler: a triangulation of n vertices into t triangles has n + t − 1
	// edges.
	m.edges = make([]Edge, 0, nt+len(m.Points)-1)
	m.edgeTri = make([][2]int, 0, cap(m.edges))
	m.triEdge = make([][3]int32, nt)
	for ti, t := range m.Tris {
		for i := 0; i < 3; i++ {
			e := MakeEdge(t.V[i], t.V[(i+1)%3])
			nb := t.N[(i+2)%3]
			if nb == -1 || nb > ti {
				m.triEdge[ti][i] = int32(len(m.edges))
				m.edges = append(m.edges, e)
				m.edgeTri = append(m.edgeTri, [2]int{ti, nb})
				continue
			}
			u := m.Tris[nb]
			for j := 0; j < 3; j++ {
				if MakeEdge(u.V[j], u.V[(j+1)%3]) == e {
					m.triEdge[ti][i] = m.triEdge[nb][j]
				}
			}
		}
	}
}

// finish strips the super-triangle, compacts the mesh, repairs its hull and
// numbers its edges.
func (bw *bowyerWatson) finish() (*Mesh, error) {
	keep := make([]int, len(bw.tris)) // old index -> new index or -1
	for i := range keep {
		keep[i] = -1
	}
	var count int
	for i, t := range bw.tris {
		if !t.alive {
			continue
		}
		touchesSuper := false
		for _, v := range t.v {
			if v >= bw.nReal {
				touchesSuper = true
			}
		}
		if touchesSuper {
			continue
		}
		keep[i] = count
		count++
	}
	if count == 0 {
		return nil, ErrAllCollinear
	}
	m := &Mesh{
		Points:      append([]geom.Point(nil), bw.pts[:bw.nReal]...),
		InputVertex: bw.inputIdx,
		Tris:        make([]Triangle, count),
	}
	for i, t := range bw.tris {
		ni := keep[i]
		if ni == -1 {
			continue
		}
		var out Triangle
		out.V = t.v
		for j := 0; j < 3; j++ {
			if t.n[j] == -1 {
				out.N[j] = -1
			} else {
				out.N[j] = keep[t.n[j]] // -1 if neighbour was super/dead
			}
		}
		m.Tris[ni] = out
	}
	repairHull(m)
	m.buildEdges()
	return m, nil
}
