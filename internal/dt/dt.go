// Package dt implements Delaunay triangulation of a 2-D point set via the
// incremental Bowyer–Watson algorithm with walking point location.
//
// This package stands in for the C++ CDT library the paper uses: the router
// triangulates the candidate vias of each wire layer (plus uniformly
// inserted boundary dummy points) and consumes the resulting triangular
// tiles, their adjacency, and their edges.
//
// The triangulation is robust enough for EDA workloads: regular pad and via
// lattices produce many exactly cocircular quadruples, which the tolerant
// in-circle predicate in package geom resolves deterministically, and a
// point that coincides with an earlier vertex, an exact copy included, is
// merged onto it during insertion.
package dt

import (
	"errors"
	"fmt"
	"slices"

	"rdlroute/internal/geom"
)

// ErrTooFewPoints is returned when fewer than three distinct points are
// supplied, so no triangle exists.
var ErrTooFewPoints = errors.New("dt: need at least 3 distinct points")

// ErrAllCollinear is returned when every input point lies on one line, so no
// triangulation with positive-area triangles exists.
var ErrAllCollinear = errors.New("dt: all points are collinear")

// Triangle is one triangular tile of the mesh. This is the κ(i,j,k) tile of
// the paper.
type Triangle struct {
	// V holds the three vertex indices in counterclockwise order.
	V [3]int
	// N holds the neighbour triangle index across the edge opposite V[i]
	// (that is, the edge V[(i+1)%3]–V[(i+2)%3]), or -1 on the hull
	// boundary.
	N [3]int
}

// Edge is an undirected mesh edge between two vertex indices with A < B.
type Edge struct {
	A, B int
}

// MakeEdge normalizes an undirected edge so A < B.
func MakeEdge(a, b int) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{A: a, B: b}
}

// Mesh is a Delaunay triangulation result.
type Mesh struct {
	// Points is the vertex set: the input points less those merged onto
	// an earlier vertex, in input order. Indices into it are the vertex
	// indices used everywhere else.
	Points []geom.Point
	// InputVertex maps each input point index to its vertex index (an
	// input merged onto an earlier vertex maps to that vertex).
	InputVertex []int
	// Tris holds the triangles of the final mesh.
	Tris []Triangle

	edges   []Edge     // edge index -> edge, in first-seen triangle order
	edgeTri [][2]int   // edge index -> its 1 or 2 triangles (-1 pad)
	triEdge [][3]int32 // triangle -> edge index of side (V[i], V[(i+1)%3])
}

// Triangulate computes the Delaunay triangulation of the given points.
// A point that coincides with an earlier vertex within the predicates'
// tolerance, an exact copy included, is merged onto that vertex: its
// insertion would leave the vertex in no triangle, so the mesh is left as
// it is. An input of more than about 5.4·10⁸ points fails with
// ErrTooManyPoints.
func Triangulate(points []geom.Point) (*Mesh, error) {
	return triangulate(points, workRoom, roomSlack)
}

// Edges returns all undirected edges of the mesh, indexed by edge index.
// The order is the one a scan over the triangles and their sides first
// meets each edge. The slice is shared with the mesh; do not modify it.
func (m *Mesh) Edges() []Edge { return m.edges }

// EdgeTris returns the one or two triangles incident to edge index ei, the
// lower index first. For a hull edge the second index is -1.
func (m *Mesh) EdgeTris(ei int) [2]int { return m.edgeTri[ei] }

// TriEdge returns the edge index of side i of triangle t, the side joining
// V[i] and V[(i+1)%3].
func (m *Mesh) TriEdge(t, i int) int { return int(m.triEdge[t][i]) }

// TriangleEdges returns the three undirected edges of triangle t.
func (m *Mesh) TriangleEdges(t int) [3]Edge {
	tri := m.Tris[t]
	return [3]Edge{
		MakeEdge(tri.V[0], tri.V[1]),
		MakeEdge(tri.V[1], tri.V[2]),
		MakeEdge(tri.V[2], tri.V[0]),
	}
}

// OppositeVertex returns the vertex of triangle t not on edge e, and reports
// whether e is actually an edge of t.
func (m *Mesh) OppositeVertex(t int, e Edge) (int, bool) {
	tri := m.Tris[t]
	for i := 0; i < 3; i++ {
		if tri.V[i] != e.A && tri.V[i] != e.B {
			o := tri.V[(i+1)%3]
			p := tri.V[(i+2)%3]
			if (o == e.A && p == e.B) || (o == e.B && p == e.A) {
				return tri.V[i], true
			}
		}
	}
	return -1, false
}

// CheckDelaunay verifies the Delaunay empty-circumcircle property: no mesh
// vertex lies strictly inside any triangle's circumcircle. It returns a
// descriptive error for the first violation found. Intended for tests.
func (m *Mesh) CheckDelaunay() error {
	for ti, t := range m.Tris {
		a, b, c := m.Points[t.V[0]], m.Points[t.V[1]], m.Points[t.V[2]]
		for vi, p := range m.Points {
			if vi == t.V[0] || vi == t.V[1] || vi == t.V[2] {
				continue
			}
			if geom.InCircle(a, b, c, p) {
				return fmt.Errorf("dt: vertex %d inside circumcircle of triangle %d", vi, ti)
			}
		}
	}
	return nil
}

// CheckTopology verifies structural invariants: CCW winding, symmetric
// neighbour links, consistent edge-triangle incidence, and that every
// vertex is a corner of some triangle. Intended for tests.
func (m *Mesh) CheckTopology() error {
	corner := make([]bool, len(m.Points))
	for _, t := range m.Tris {
		for _, v := range t.V {
			corner[v] = true
		}
	}
	if vi := slices.Index(corner, false); vi != -1 {
		return fmt.Errorf("dt: vertex %d is a corner of no triangle", vi)
	}
	for ti, t := range m.Tris {
		a, b, c := m.Points[t.V[0]], m.Points[t.V[1]], m.Points[t.V[2]]
		if geom.Orient(a, b, c) != geom.CounterClockwise {
			return fmt.Errorf("dt: triangle %d not counterclockwise", ti)
		}
		for i := 0; i < 3; i++ {
			n := t.N[i]
			if n == -1 {
				continue
			}
			if n < 0 || n >= len(m.Tris) {
				return fmt.Errorf("dt: triangle %d neighbour %d out of range", ti, n)
			}
			// The neighbour must point back at us across the shared edge.
			back := false
			for j := 0; j < 3; j++ {
				if m.Tris[n].N[j] == ti {
					back = true
				}
			}
			if !back {
				return fmt.Errorf("dt: triangle %d neighbour %d does not link back", ti, n)
			}
		}
	}
	// Edge incidence: every listed triangle has the edge, and every side of
	// every triangle leads to its edge and back.
	for ei, e := range m.edges {
		for _, ti := range m.edgeTri[ei] {
			if ti == -1 {
				continue
			}
			found := false
			for _, ee := range m.TriangleEdges(ti) {
				if ee == e {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("dt: edge %v lists triangle %d which lacks it", e, ti)
			}
		}
	}
	for ti, t := range m.Tris {
		for i := 0; i < 3; i++ {
			ei := m.TriEdge(ti, i)
			if m.edges[ei] != MakeEdge(t.V[i], t.V[(i+1)%3]) {
				return fmt.Errorf("dt: triangle %d side %d maps to edge %v", ti, i, m.edges[ei])
			}
			if ts := m.edgeTri[ei]; ts[0] != ti && ts[1] != ti {
				return fmt.Errorf("dt: edge %v does not list triangle %d", m.edges[ei], ti)
			}
		}
	}
	return nil
}
