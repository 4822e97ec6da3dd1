package geom

import "math"

// Circle is the C(p, rad) primitive of the paper: the circle centered at C
// with radius R. In fit routing circles model the keep-out region around a
// point of a previously routed wire or a via.
type Circle struct {
	C Point
	R float64
}

// Circ is shorthand for Circle{c, r}.
func Circ(c Point, r float64) Circle { return Circle{C: c, R: r} }

// TangentPoints returns the two points where the tangent lines from the
// external point p touch the circle. It reports false when p lies inside
// the circle (no tangent exists). When p lies exactly on the circle both
// tangent points equal p.
func (c Circle) TangentPoints(p Point) (Point, Point, bool) {
	d2 := c.C.Dist2(p)
	r2 := c.R * c.R
	if d2 < r2-Eps {
		return Point{}, Point{}, false
	}
	if d2 <= r2+Eps {
		return p, p, true
	}
	d := math.Sqrt(d2)
	// Distance from p to each tangent point.
	l := math.Sqrt(d2 - r2)
	// Angle at p between the line to the center and each tangent line.
	alpha := math.Asin(c.R / d)
	dir := c.C.Sub(p).Unit()
	t1 := p.Add(dir.Rotate(alpha).Scale(l))
	t2 := p.Add(dir.Rotate(-alpha).Scale(l))
	return t1, t2, true
}

// TangentIntersection implements the fit-routing construction of Fig. 12 in
// the paper: given a source p_s and target p_t both outside the constraint
// circle, it finds the intersection point I of the tangent line from p_s and
// the tangent line from p_t, choosing the tangents on the same side of the
// chord p_s–p_t as "away from" the reference point ref (the tile corner the
// route wraps around; the detour must bulge away from the constraint circle
// on the side opposite the already-routed inner wires).
//
// It reports false when either endpoint is inside the circle or when the
// chosen tangent lines are parallel (which only happens in degenerate
// configurations such as p_s, p_t and the circle center being collinear with
// the circle between them at exactly matching angles).
//
//rdl:noalloc
func (c Circle) TangentIntersection(ps, pt, ref Point) (Point, bool) {
	s1, s2, ok := c.TangentPoints(ps)
	if !ok {
		return Point{}, false
	}
	t1, t2, ok := c.TangentPoints(pt)
	if !ok {
		return Point{}, false
	}
	// The detour must go around the circle on the side opposite ref. Pick,
	// for each endpoint, the tangent point on the far side of the line
	// (center → away-from-ref).
	away := c.C.Sub(ref)
	if ApproxZero(away.Norm2()) {
		away = pt.Sub(ps).Perp()
	}
	sp := farTangent(c.C, away, s1, s2)
	tp := farTangent(c.C, away, t1, t2)
	// Tangent at a point on the circle is perpendicular to the radius; using
	// the endpoint and its tangent point as the two line points is stable
	// because both are well separated for external points.
	ls := LineThrough(ps, sp)
	lt := LineThrough(pt, tp)
	if sp.ApproxEq(ps) {
		// ps on the circle: tangent line is the perpendicular to the radius.
		r := ps.Sub(c.C).Perp()
		ls = LineThrough(ps, ps.Add(r))
	}
	if tp.ApproxEq(pt) {
		r := pt.Sub(c.C).Perp()
		lt = LineThrough(pt, pt.Add(r))
	}
	return ls.Intersect(lt)
}

// farTangent chooses, of the two tangent points a and b on the circle
// centered at c, the one whose direction from the center aligns better with
// away (the "away from ref" side the detour must bulge toward).
//
//rdl:noalloc
func farTangent(c, away, a, b Point) Point {
	if a.Sub(c).Dot(away) >= b.Sub(c).Dot(away) {
		return a
	}
	return b
}

// IntersectSegment reports whether the segment s passes within the circle,
// i.e. whether the minimum distance from the center to the segment is below
// the radius (beyond tolerance).
func (c Circle) IntersectSegment(s Segment) bool {
	return s.DistToPoint(c.C) < c.R-Eps
}
