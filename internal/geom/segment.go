package geom

import "math"

// Segment is the closed line segment between two endpoints A and B. This is
// the s(p_i, p_j) primitive of the paper.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Len returns the Euclidean length of the segment.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// Dir returns the unit direction vector from A to B. Degenerate segments
// yield the zero vector.
func (s Segment) Dir() Point { return s.B.Sub(s.A).Unit() }

// Mid returns the midpoint of the segment.
func (s Segment) Mid() Point { return Mid(s.A, s.B) }

// At returns the point at parameter t along the segment (t=0 → A, t=1 → B).
func (s Segment) At(t float64) Point { return s.A.Lerp(s.B, t) }

// ClosestParam returns the parameter t in [0, 1] of the point on s closest
// to p.
func (s Segment) ClosestParam(p Point) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Norm2()
	//rdl:allow floateq exact-zero guards division by zero only: any nonzero norm, however small, divides finely
	if l2 == 0 {
		return 0
	}
	return Clamp(p.Sub(s.A).Dot(d)/l2, 0, 1)
}

// ClosestPoint returns the point on s closest to p.
func (s Segment) ClosestPoint(p Point) Point {
	return s.At(s.ClosestParam(p))
}

// DistToPoint returns the distance from p to the closest point on s.
func (s Segment) DistToPoint(p Point) float64 {
	return p.Dist(s.ClosestPoint(p))
}

// DistToSegment returns the minimum distance between segments s and t, which
// is zero when they intersect. It also returns the closest pair of points
// (one on each segment) realizing that distance. For disjoint segments the
// minimum is realized at an endpoint of one against the other, so the four
// endpoint projections are checked explicitly.
//
//rdl:noalloc
func (s Segment) DistToSegment(t Segment) (float64, Point, Point) {
	if hit, p := s.Intersection(t); hit {
		return 0, p, p
	}
	ps, pt := s.A, t.ClosestPoint(s.A)
	best := ps.Dist(pt)
	if q := t.ClosestPoint(s.B); s.B.Dist(q) < best {
		best, ps, pt = s.B.Dist(q), s.B, q
	}
	if q := s.ClosestPoint(t.A); t.A.Dist(q) < best {
		best, ps, pt = t.A.Dist(q), q, t.A
	}
	if q := s.ClosestPoint(t.B); t.B.Dist(q) < best {
		best, ps, pt = t.B.Dist(q), q, t.B
	}
	return best, ps, pt
}

// Intersects reports whether s and t share at least one point, including
// endpoint touches and collinear overlap.
func (s Segment) Intersects(t Segment) bool {
	o1 := Orient(s.A, s.B, t.A)
	o2 := Orient(s.A, s.B, t.B)
	o3 := Orient(t.A, t.B, s.A)
	o4 := Orient(t.A, t.B, s.B)
	if o1 != o2 && o3 != o4 {
		return true
	}
	// Collinear special cases: check projection overlap.
	if o1 == Collinear && onSegmentCollinear(s, t.A) {
		return true
	}
	if o2 == Collinear && onSegmentCollinear(s, t.B) {
		return true
	}
	if o3 == Collinear && onSegmentCollinear(t, s.A) {
		return true
	}
	if o4 == Collinear && onSegmentCollinear(t, s.B) {
		return true
	}
	return false
}

// Intersection returns a point common to s and t if one exists. For
// properly crossing segments it is the unique crossing point; for touching
// or collinear-overlapping segments it is one representative shared point.
//
//rdl:noalloc
func (s Segment) Intersection(t Segment) (bool, Point) {
	d1 := s.B.Sub(s.A)
	d2 := t.B.Sub(t.A)
	denom := d1.Cross(d2)
	diff := t.A.Sub(s.A)
	if !ApproxZero(denom) {
		u := diff.Cross(d2) / denom
		v := diff.Cross(d1) / denom
		const slack = 1e-12
		if u >= -slack && u <= 1+slack && v >= -slack && v <= 1+slack {
			return true, s.At(Clamp(u, 0, 1))
		}
		return false, Point{}
	}
	// Parallel. Overlap is only possible when also collinear.
	if !ApproxZero(diff.Cross(d1)) {
		return false, Point{}
	}
	for _, p := range [2]Point{t.A, t.B} {
		if onSegmentCollinear(s, p) {
			return true, p
		}
	}
	for _, p := range [2]Point{s.A, s.B} {
		if onSegmentCollinear(t, p) {
			return true, p
		}
	}
	return false, Point{}
}

// ProperlyIntersects reports whether s and t cross at a single interior
// point of both segments (no endpoint touching, no collinear overlap).
func (s Segment) ProperlyIntersects(t Segment) bool {
	o1 := Orient(s.A, s.B, t.A)
	o2 := Orient(s.A, s.B, t.B)
	o3 := Orient(t.A, t.B, s.A)
	o4 := Orient(t.A, t.B, s.B)
	return o1 != Collinear && o2 != Collinear && o3 != Collinear && o4 != Collinear &&
		o1 != o2 && o3 != o4
}

// onSegmentCollinear reports whether p, already known collinear with s, lies
// within s's bounding box (and therefore on s).
func onSegmentCollinear(s Segment, p Point) bool {
	return p.X >= math.Min(s.A.X, s.B.X)-Eps && p.X <= math.Max(s.A.X, s.B.X)+Eps &&
		p.Y >= math.Min(s.A.Y, s.B.Y)-Eps && p.Y <= math.Max(s.A.Y, s.B.Y)+Eps
}

// Line is an infinite line through two distinct points.
type Line struct {
	P, Q Point
}

// LineThrough builds the line through a and b.
func LineThrough(a, b Point) Line { return Line{P: a, Q: b} }

// Intersect returns the intersection point of lines l and m, reporting false
// when they are parallel (or identical).
func (l Line) Intersect(m Line) (Point, bool) {
	d1 := l.Q.Sub(l.P)
	d2 := m.Q.Sub(m.P)
	denom := d1.Cross(d2)
	if ApproxZero(denom) {
		return Point{}, false
	}
	u := m.P.Sub(l.P).Cross(d2) / denom
	return l.P.Add(d1.Scale(u)), true
}

// Project returns the orthogonal projection of p onto the line.
func (l Line) Project(p Point) Point {
	d := l.Q.Sub(l.P)
	l2 := d.Norm2()
	//rdl:allow floateq exact-zero guards division by zero only: any nonzero norm, however small, divides finely
	if l2 == 0 {
		return l.P
	}
	t := p.Sub(l.P).Dot(d) / l2
	return l.P.Add(d.Scale(t))
}

// DistToPoint returns the distance from p to the line.
func (l Line) DistToPoint(p Point) float64 { return p.Dist(l.Project(p)) }
