package dt

import (
	"math"
	"testing"
	"testing/quick"

	"rdlroute/internal/geom"
)

// quickPoints turns quick-generated floats into a bounded point set.
func quickPoints(coords []float64) []geom.Point {
	var pts []geom.Point
	for i := 0; i+1 < len(coords) && len(pts) < 60; i += 2 {
		x, y := coords[i], coords[i+1]
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			continue
		}
		pts = append(pts, geom.Pt(math.Mod(x, 2000), math.Mod(y, 2000)))
	}
	return pts
}

// Property: every successful triangulation satisfies the Delaunay
// empty-circumcircle property and the structural invariants.
func TestQuickDelaunayInvariants(t *testing.T) {
	f := func(coords []float64) bool {
		pts := quickPoints(coords)
		if len(pts) < 3 {
			return true
		}
		m, err := Triangulate(pts)
		if err != nil {
			// Degenerate inputs (duplicates collapsing below 3 points,
			// collinear sets) may legitimately fail.
			return err == ErrTooFewPoints || err == ErrAllCollinear
		}
		return m.CheckDelaunay() == nil && m.CheckTopology() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the mesh covers exactly the convex hull — total triangle area
// equals the hull polygon area.
func TestQuickMeshAreaEqualsHull(t *testing.T) {
	f := func(coords []float64) bool {
		pts := quickPoints(coords)
		if len(pts) < 3 {
			return true
		}
		m, err := Triangulate(pts)
		if err != nil {
			return true
		}
		var meshArea float64
		for _, tri := range m.Tris {
			meshArea += math.Abs(geom.SignedArea2(
				m.Points[tri.V[0]], m.Points[tri.V[1]], m.Points[tri.V[2]])) / 2
		}
		hull := geom.ConvexHull(m.Points)
		hullArea := math.Abs(geom.PolygonArea(hull))
		return math.Abs(meshArea-hullArea) <= 1e-6*(1+hullArea)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: every input point is a vertex of the mesh (after dedup), and
// every triangle side's edge index leads back to that triangle.
func TestQuickVertexAccounting(t *testing.T) {
	f := func(coords []float64) bool {
		pts := quickPoints(coords)
		if len(pts) < 3 {
			return true
		}
		m, err := Triangulate(pts)
		if err != nil {
			return true
		}
		if len(m.InputVertex) != len(pts) {
			return false
		}
		for i, p := range pts {
			vi := m.InputVertex[i]
			if vi < 0 || vi >= len(m.Points) {
				return false
			}
			if m.Points[vi] != p {
				return false
			}
		}
		// Each side's edge is that side, and lists the triangle.
		for ti, tri := range m.Tris {
			for i := 0; i < 3; i++ {
				ei := m.TriEdge(ti, i)
				if m.Edges()[ei] != MakeEdge(tri.V[i], tri.V[(i+1)%3]) {
					return false
				}
				if ts := m.EdgeTris(ei); ts[0] != ti && ts[1] != ti {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
