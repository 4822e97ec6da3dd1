package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSegmentBasics(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(3, 4))
	if s.Len() != 5 {
		t.Errorf("Len = %v", s.Len())
	}
	if !s.Mid().ApproxEq(Pt(1.5, 2)) {
		t.Errorf("Mid = %v", s.Mid())
	}
	if !s.Dir().ApproxEq(Pt(0.6, 0.8)) {
		t.Errorf("Dir = %v", s.Dir())
	}
	if !s.At(0.5).ApproxEq(Pt(1.5, 2)) {
		t.Errorf("At(0.5) = %v", s.At(0.5))
	}
}

func TestClosestPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	cases := []struct {
		p, want Point
	}{
		{Pt(5, 3), Pt(5, 0)},
		{Pt(-2, 1), Pt(0, 0)},   // clamps to A
		{Pt(12, -1), Pt(10, 0)}, // clamps to B
	}
	for _, c := range cases {
		if got := s.ClosestPoint(c.p); !got.ApproxEq(c.want) {
			t.Errorf("ClosestPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if d := s.DistToPoint(Pt(5, 3)); !ApproxEq(d, 3) {
		t.Errorf("DistToPoint = %v", d)
	}
	// Degenerate segment.
	d := Seg(Pt(1, 1), Pt(1, 1))
	if !d.ClosestPoint(Pt(9, 9)).ApproxEq(Pt(1, 1)) {
		t.Error("degenerate segment ClosestPoint wrong")
	}
}

func TestSegmentIntersects(t *testing.T) {
	cases := []struct {
		s, u Segment
		want bool
	}{
		{Seg(Pt(0, 0), Pt(10, 10)), Seg(Pt(0, 10), Pt(10, 0)), true}, // proper cross
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(5, 0), Pt(5, 5)), true},    // T-touch
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(10, 0), Pt(20, 0)), true},  // endpoint chain
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(4, 0), Pt(6, 0)), true},    // collinear overlap
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(11, 0), Pt(20, 0)), false}, // collinear gap
		{Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(0, 1), Pt(10, 1)), false},  // parallel
		{Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(2, 0), Pt(3, -5)), false},   // disjoint
	}
	for i, c := range cases {
		if got := c.s.Intersects(c.u); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.u.Intersects(c.s); got != c.want {
			t.Errorf("case %d (swapped): Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestSegmentIntersectionPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 10))
	u := Seg(Pt(0, 10), Pt(10, 0))
	hit, p := s.Intersection(u)
	if !hit || !p.ApproxEq(Pt(5, 5)) {
		t.Errorf("Intersection = %v, %v", hit, p)
	}
	// Non-intersecting.
	hit, _ = s.Intersection(Seg(Pt(20, 0), Pt(30, 0)))
	if hit {
		t.Error("expected no intersection")
	}
	// Collinear overlap returns a shared point.
	hit, p = Seg(Pt(0, 0), Pt(10, 0)).Intersection(Seg(Pt(5, 0), Pt(15, 0)))
	if !hit {
		t.Fatal("collinear overlap should intersect")
	}
	if p.Y != 0 || p.X < 5-Eps || p.X > 10+Eps {
		t.Errorf("shared point %v outside overlap", p)
	}
}

func TestProperlyIntersects(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 10))
	if !s.ProperlyIntersects(Seg(Pt(0, 10), Pt(10, 0))) {
		t.Error("proper cross not detected")
	}
	// Endpoint touch is not proper.
	if s.ProperlyIntersects(Seg(Pt(10, 10), Pt(20, 0))) {
		t.Error("endpoint touch must not be proper")
	}
	// Collinear overlap is not proper.
	if Seg(Pt(0, 0), Pt(10, 0)).ProperlyIntersects(Seg(Pt(5, 0), Pt(15, 0))) {
		t.Error("collinear overlap must not be proper")
	}
}

func TestDistToSegment(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	u := Seg(Pt(0, 3), Pt(10, 3))
	d, ps, pt := s.DistToSegment(u)
	if !ApproxEq(d, 3) {
		t.Errorf("parallel dist = %v, want 3", d)
	}
	if !ApproxEq(ps.Dist(pt), 3) {
		t.Errorf("closest pair dist %v != 3", ps.Dist(pt))
	}
	// Crossing segments have distance 0.
	d, _, _ = s.DistToSegment(Seg(Pt(5, -1), Pt(5, 1)))
	if d != 0 {
		t.Errorf("crossing dist = %v, want 0", d)
	}
	// Skewed disjoint: closest is endpoint-to-endpoint.
	d, _, _ = Seg(Pt(0, 0), Pt(1, 0)).DistToSegment(Seg(Pt(4, 4), Pt(8, 8)))
	if !ApproxEq(d, Pt(1, 0).Dist(Pt(4, 4))) {
		t.Errorf("skew dist = %v", d)
	}
}

func TestLineIntersect(t *testing.T) {
	l := LineThrough(Pt(0, 0), Pt(1, 1))
	m := LineThrough(Pt(0, 2), Pt(1, 1))
	p, ok := l.Intersect(m)
	if !ok || !p.ApproxEq(Pt(1, 1)) {
		t.Errorf("Intersect = %v, %v", p, ok)
	}
	// Lines intersect beyond segment extents too.
	m2 := LineThrough(Pt(10, 0), Pt(10, 1))
	p, ok = l.Intersect(m2)
	if !ok || !p.ApproxEq(Pt(10, 10)) {
		t.Errorf("extended Intersect = %v, %v", p, ok)
	}
	_, ok = l.Intersect(LineThrough(Pt(0, 5), Pt(1, 6)))
	if ok {
		t.Error("parallel lines must not intersect")
	}
}

func TestLineProjectAndDist(t *testing.T) {
	l := LineThrough(Pt(0, 0), Pt(10, 0))
	if got := l.Project(Pt(3, 7)); !got.ApproxEq(Pt(3, 0)) {
		t.Errorf("Project = %v", got)
	}
	if d := l.DistToPoint(Pt(3, 7)); !ApproxEq(d, 7) {
		t.Errorf("DistToPoint = %v", d)
	}
}

// Property: the closest point on a segment is never farther than either
// endpoint.
func TestClosestPointProperty(t *testing.T) {
	f := func(ax, ay, bx, by, px, py float64) bool {
		s := Seg(Pt(norm(ax), norm(ay)), Pt(norm(bx), norm(by)))
		p := Pt(norm(px), norm(py))
		d := s.DistToPoint(p)
		return d <= p.Dist(s.A)+1e-9 && d <= p.Dist(s.B)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: segment-to-segment distance is symmetric and zero iff
// Intersects (for well-separated random segments tolerance aside).
func TestDistToSegmentSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		s := Seg(Pt(norm(ax), norm(ay)), Pt(norm(bx), norm(by)))
		u := Seg(Pt(norm(cx), norm(cy)), Pt(norm(dx), norm(dy)))
		d1, _, _ := s.DistToSegment(u)
		d2, _, _ := u.DistToSegment(s)
		return math.Abs(d1-d2) < 1e-6*(1+d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
