package geom

// Orientation classifies the turn formed by an ordered point triple.
type Orientation int

// The three possible orientations of an ordered point triple.
const (
	Clockwise        Orientation = -1
	Collinear        Orientation = 0
	CounterClockwise Orientation = 1
)

// String returns a human-readable name for the orientation.
func (o Orientation) String() string {
	switch o {
	case Clockwise:
		return "clockwise"
	case CounterClockwise:
		return "counterclockwise"
	default:
		return "collinear"
	}
}

// Orient returns the orientation of the ordered triple (a, b, c): the sign of
// the doubled signed area of triangle abc. A relative tolerance keyed to the
// coordinate magnitudes guards against float64 noise on nearly collinear
// triples, which matters because the Delaunay mesh feeds nearly collinear
// boundary points through this predicate constantly.
func Orient(a, b, c Point) Orientation {
	det := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	// Scale the tolerance with the magnitude of the inputs so the predicate
	// behaves sensibly for both µm-scale and mm-scale coordinates.
	mag := abs(b.X-a.X) + abs(b.Y-a.Y) + abs(c.X-a.X) + abs(c.Y-a.Y)
	tol := 1e-12 * mag * mag
	if tol < 1e-12 {
		tol = 1e-12
	}
	switch {
	case det > tol:
		return CounterClockwise
	case det < -tol:
		return Clockwise
	default:
		return Collinear
	}
}

// SignedArea2 returns twice the signed area of triangle abc: positive when
// the triple is counterclockwise.
func SignedArea2(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// InCircle reports whether point d lies strictly inside the circumcircle of
// the counterclockwise triangle (a, b, c). This is the Delaunay empty-circle
// predicate, computed via the standard lifted 3x3 determinant.
//
// The caller must pass (a, b, c) in counterclockwise order; passing a
// clockwise triangle inverts the result.
func InCircle(a, b, c, d Point) bool {
	ax, ay := a.X-d.X, a.Y-d.Y
	bx, by := b.X-d.X, b.Y-d.Y
	cx, cy := c.X-d.X, c.Y-d.Y
	a2 := ax*ax + ay*ay
	b2 := bx*bx + by*by
	c2 := cx*cx + cy*cy
	det := ax*(by*c2-b2*cy) - ay*(bx*c2-b2*cx) + a2*(bx*cy-by*cx)
	// A relative tolerance keeps cocircular point sets (regular pad grids
	// produce many) from flip-flopping between the two legal triangulations.
	mag := a2 + b2 + c2
	tol := 1e-10 * mag
	return det > tol
}

// PointInTriangle reports whether p lies inside or on the boundary of
// triangle (a, b, c). The triangle may be given in either winding order.
func PointInTriangle(p, a, b, c Point) bool {
	d1 := SignedArea2(p, a, b)
	d2 := SignedArea2(p, b, c)
	d3 := SignedArea2(p, c, a)
	hasNeg := d1 < -Eps || d2 < -Eps || d3 < -Eps
	hasPos := d1 > Eps || d2 > Eps || d3 > Eps
	return !(hasNeg && hasPos)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
