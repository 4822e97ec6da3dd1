package dt

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"rdlroute/internal/geom"
)

// wtri is a working triangle during incremental construction. Its indices
// are int32, which packs the record into 28 bytes.
type wtri struct {
	v     [3]int32
	n     [3]int32 // neighbour across edge opposite v[i]; -1 = none
	alive bool
}

type bowyerWatson struct {
	pts      []geom.Point // deduped input points + 3 super vertices at the end
	inputIdx []int        // input index -> vertex index
	nReal    int          // number of real (non-super) vertices
	tris     []wtri       // the room: live and dead triangles in slot order
	slack    int          // compact when fewer slots than this are free
	lastTri  int32        // walk hint
	mergeTol float64      // how far a merged point may lie from its vertex
	merged   [][2]int32   // (vertex, earlier vertex it was merged onto)

	// Scratch reused across insertions. A triangle is in the current
	// insertion's cavity when its badStamp equals stamp; badStamp grows with
	// tris, and new triangles start at 0, which no insertion's stamp is. A
	// vertex is on the current cavity's boundary when its vertStamp equals
	// stamp.
	badStamp  []int32
	vertStamp []int32
	stamp     int32
	cavity    []int32
	boundary  []boundaryEdge
	stack     []int32
}

// roomSlack is the free room, in working triangles, below which an
// insertion first compacts the live triangles. An insertion makes one
// triangle per cavity boundary edge, about six on the dense layers.
const roomSlack = 64

// workRoom is the working-triangle room for n distinct points. A mesh of
// n+3 vertices (the super vertices included) has at most 2(n+3) live
// triangles, so after a compaction at least half the room is free.
func workRoom(n int) int { return 4*(n+3) + roomSlack }

// maxPoints is the largest input whose working room and vertex indices fit
// the int32 fields of wtri.
const maxPoints = (math.MaxInt32-roomSlack)/4 - 3

// ErrTooManyPoints is returned for an input of more than maxPoints points,
// whose triangle and vertex indices would not fit the working records.
var ErrTooManyPoints = fmt.Errorf("dt: more than %d points", maxPoints)

// triangulate is Triangulate with the working room chosen by the caller:
// room(n) triangle slots for n distinct points, compacted at the start of
// an insertion that finds fewer than slack of them free. A fan that does
// not fit grows the room. The mesh is the same for every choice.
func triangulate(points []geom.Point, room func(n int) int, slack int) (*Mesh, error) {
	if len(points) > maxPoints {
		return nil, ErrTooManyPoints
	}
	bw := newBowyerWatson(points, room, slack)
	if bw.nReal < 3 {
		return nil, ErrTooFewPoints
	}
	if err := bw.run(); err != nil {
		return nil, err
	}
	return bw.finish()
}

func newBowyerWatson(points []geom.Point, room func(n int) int, slack int) *bowyerWatson {
	bw := &bowyerWatson{
		pts:      make([]geom.Point, 0, len(points)+3),
		slack:    slack,
		cavity:   make([]int32, 0, 64),
		boundary: make([]boundaryEdge, 0, 64),
		stack:    make([]int32, 0, 64),
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
	bw.mergeTol = 1e-9 * size
	c := r.Center()
	m := 64 * size
	bw.pts = append(bw.pts,
		geom.Pt(c.X-2*m, c.Y-m),
		geom.Pt(c.X+2*m, c.Y-m),
		geom.Pt(c.X, c.Y+2*m),
	)
	s0, s1, s2 := int32(bw.nReal), int32(bw.nReal+1), int32(bw.nReal+2)
	slots := max(room(bw.nReal), 1)
	bw.tris = make([]wtri, 1, slots)
	bw.tris[0] = wtri{v: [3]int32{s0, s1, s2}, n: [3]int32{-1, -1, -1}, alive: true}
	bw.badStamp = make([]int32, 1, slots)
	bw.vertStamp = make([]int32, len(bw.pts))
	// pts[] for super triangle chosen CCW already: (-2m,-m),(2m,-m),(0,2m).
	return bw
}

// errDegenerate signals an insertion the algorithm could not complete.
var errDegenerate = errors.New("dt: degenerate configuration during insertion")

func (bw *bowyerWatson) run() error {
	for v := 0; v < bw.nReal; v++ {
		if err := bw.insert(int32(v)); err != nil {
			return err
		}
	}
	return nil
}

// compact moves the live triangles to the front of the room in slot order
// and rewrites every neighbour index and the walk hint through one
// old→new table, which borrows badStamp: between insertions no triangle
// is in a cavity. The order of the live triangles is kept, so everything
// that depends on slot order reads the same order as without compaction:
// the sorted cavity and with it the fan, locate's scans, and finish's
// numbering. locate's step cap and the boundary walk's guard shrink with
// the room, but neither is reached while it exceeds the live count: a walk
// that revisits a triangle cycles forever, and the cavity grows at most
// once per live triangle.
func (bw *bowyerWatson) compact() {
	to := bw.badStamp
	live := int32(0)
	for i := range bw.tris {
		if bw.tris[i].alive {
			to[i] = live
			bw.tris[live] = bw.tris[i]
			live++
		}
	}
	bw.tris = bw.tris[:live]
	for i := range bw.tris {
		t := &bw.tris[i]
		for j, nb := range t.n {
			if nb != -1 {
				t.n[j] = to[nb]
			}
		}
	}
	bw.lastTri = to[bw.lastTri]
	bw.badStamp = to[:live]
	clear(bw.badStamp)
}

// locate walks from the hint triangle toward p and returns the index of an
// alive triangle containing p.
func (bw *bowyerWatson) locate(p geom.Point) int32 {
	t := bw.lastTri
	if t < 0 || int(t) >= len(bw.tris) || !bw.tris[t].alive {
		t = -1
		for i := len(bw.tris) - 1; i >= 0; i-- {
			if bw.tris[i].alive {
				t = int32(i)
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
			return int32(i)
		}
	}
	return -1
}

type boundaryEdge struct {
	a, b    int32 // directed per the dead triangle's CCW winding
	outside int32 // triangle index across the edge, or -1
}

func (bw *bowyerWatson) insert(v int32) error {
	if cap(bw.tris)-len(bw.tris) < bw.slack {
		bw.compact()
	}
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
		slices.Sort(bw.cavity)
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

	// Every corner of the cavity must stay a corner of the fan. One that is
	// not on the boundary coincides with p within the predicates'
	// tolerance: every edge around it reads as collinear with p, which
	// pulls all its triangles into the cavity. p is merged onto it, and the
	// mesh stays as it is.
	if w := bw.enclosedCorner(); w != -1 {
		if w == -2 || bw.pts[w].Dist(p) > bw.mergeTol {
			return errDegenerate
		}
		bw.merged = append(bw.merged, [2]int32{v, w})
		return nil
	}

	// Kill cavity triangles.
	for _, t := range bw.cavity {
		bw.tris[t].alive = false
	}

	// Create the fan of new triangles around p, one per boundary edge in
	// boundary order, and stitch adjacency. A fan that does not fit the
	// room grows it.
	if len(bw.tris)+len(boundary) > math.MaxInt32 {
		return ErrTooManyPoints
	}
	first := int32(len(bw.tris))
	for _, be := range boundary {
		idx := int32(len(bw.tris))
		// Vertices [p, a, b]: CCW because the dead triangle was CCW and p
		// lies on its interior side of a→b.
		bw.tris = append(bw.tris, wtri{
			v:     [3]int32{v, be.a, be.b},
			n:     [3]int32{be.outside, -1, -1},
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
	for i := int(first); i < len(bw.tris); i++ {
		tr := &bw.tris[i]
		a, b := tr.v[1], tr.v[2]
		for j, be := range boundary {
			if be.a == b { // triangle [p, b, x] shares edge (p, b)
				tr.n[1] = first + int32(j)
			}
			if be.b == a { // triangle [p, x, a] shares edge (p, a)
				tr.n[2] = first + int32(j)
			}
		}
	}
	bw.lastTri = first
	return nil
}

// enclosedCorner returns the corner of a cavity triangle that is not on
// the cavity boundary, -1 when every corner is, and -2 when more than one
// is not.
func (bw *bowyerWatson) enclosedCorner() int32 {
	for _, be := range bw.boundary {
		bw.vertStamp[be.a] = bw.stamp
		bw.vertStamp[be.b] = bw.stamp
	}
	w := int32(-1)
	for _, t := range bw.cavity {
		for _, c := range bw.tris[t].v {
			if bw.vertStamp[c] == bw.stamp || c == w {
				continue
			}
			if w != -1 {
				return -2
			}
			w = c
		}
	}
	return w
}

// inCavity reports whether triangle t is in the current insertion's cavity.
func (bw *bowyerWatson) inCavity(t int32) bool { return bw.badStamp[t] == bw.stamp }

// addToCavity marks triangle t as part of the current insertion's cavity.
func (bw *bowyerWatson) addToCavity(t int32) {
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

// finish strips the super-triangle, compacts the mesh, drops the merged
// vertices, repairs its hull and numbers its edges.
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
			if int(v) >= bw.nReal {
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
		if bw.nReal-len(bw.merged) < 3 {
			return nil, ErrTooFewPoints
		}
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
		for j := 0; j < 3; j++ {
			out.V[j] = int(t.v[j])
			if t.n[j] == -1 {
				out.N[j] = -1
			} else {
				out.N[j] = keep[t.n[j]] // -1 if neighbour was super/dead
			}
		}
		m.Tris[ni] = out
	}
	m.dropMerged(bw.merged)
	repairHull(m)
	m.buildEdges()
	return m, nil
}

// dropMerged removes the vertices merged onto an earlier one, given in
// vertex order, from a mesh they are no corner of. Later vertices move
// down, and the inputs of a merged vertex map to the vertex it was merged
// onto.
func (m *Mesh) dropMerged(merged [][2]int32) {
	if len(merged) == 0 {
		return
	}
	to := make([]int, len(m.Points))
	next := 0
	for i := range m.Points {
		if len(merged) > 0 && int(merged[0][0]) == i {
			to[i] = to[merged[0][1]] // merged onto an earlier vertex
			merged = merged[1:]
			continue
		}
		to[i] = next
		m.Points[next] = m.Points[i]
		next++
	}
	m.Points = m.Points[:next]
	for i, v := range m.InputVertex {
		m.InputVertex[i] = to[v]
	}
	for ti := range m.Tris {
		for j := range m.Tris[ti].V {
			m.Tris[ti].V[j] = to[m.Tris[ti].V[j]]
		}
	}
}
