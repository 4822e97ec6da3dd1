package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTangentPoints(t *testing.T) {
	c := Circ(Pt(0, 0), 1)
	p := Pt(2, 0)
	t1, t2, ok := c.TangentPoints(p)
	if !ok {
		t.Fatal("external point must have tangents")
	}
	// Tangent points lie on the circle.
	for _, tp := range []Point{t1, t2} {
		if !ApproxEq(tp.Dist(c.C), 1) {
			t.Errorf("tangent point %v not on circle", tp)
		}
		// Radius is perpendicular to tangent direction.
		radius := tp.Sub(c.C)
		tangent := tp.Sub(p)
		if !ApproxZero(radius.Dot(tangent) / (1 + tangent.Norm())) {
			t.Errorf("radius not perpendicular to tangent at %v (dot=%v)", tp, radius.Dot(tangent))
		}
	}
	// Symmetric about the x-axis for this configuration.
	if !ApproxEq(t1.Y, -t2.Y) || !ApproxEq(t1.X, t2.X) {
		t.Errorf("tangent points not symmetric: %v %v", t1, t2)
	}
	// Interior point has no tangents.
	if _, _, ok := c.TangentPoints(Pt(0.5, 0)); ok {
		t.Error("interior point must have no tangents")
	}
	// Point on the circle tangents to itself.
	a, b, ok := c.TangentPoints(Pt(1, 0))
	if !ok || !a.ApproxEq(Pt(1, 0)) || !b.ApproxEq(Pt(1, 0)) {
		t.Error("on-circle point should tangent at itself")
	}
}

func TestTangentIntersection(t *testing.T) {
	// Constraint circle sits between source and target; the detour must
	// bulge away from ref (below the x-axis → detour above).
	c := Circ(Pt(0, 0), 1)
	ps, pt := Pt(-3, 0), Pt(3, 0)
	ref := Pt(0, -5)
	i, ok := c.TangentIntersection(ps, pt, ref)
	if !ok {
		t.Fatal("tangent intersection must exist")
	}
	if i.Y <= 0 {
		t.Errorf("detour apex %v should be above the axis (away from ref)", i)
	}
	// The two-segment detour clears the circle.
	for _, s := range []Segment{Seg(ps, i), Seg(i, pt)} {
		if d := s.DistToPoint(c.C); d < c.R-1e-6 {
			t.Errorf("detour segment %v passes through circle (d=%v)", s, d)
		}
	}
	// Symmetric configuration: apex on the y-axis.
	if !ApproxZero(i.X) {
		t.Errorf("apex should be on the symmetry axis, got %v", i)
	}
	// Endpoint inside the circle fails.
	if _, ok := c.TangentIntersection(Pt(0.1, 0), pt, ref); ok {
		t.Error("interior source must fail")
	}
}

func TestIntersectSegment(t *testing.T) {
	c := Circ(Pt(0, 0), 2)
	if !c.IntersectSegment(Seg(Pt(-5, 0), Pt(5, 0))) {
		t.Error("chord through center should intersect")
	}
	if !c.IntersectSegment(Seg(Pt(-5, 1), Pt(5, 1))) {
		t.Error("off-center chord should intersect")
	}
	if c.IntersectSegment(Seg(Pt(-5, 3), Pt(5, 3))) {
		t.Error("segment outside should not intersect")
	}
	// Tangent segment (distance exactly R) does not count as passing within.
	if c.IntersectSegment(Seg(Pt(-5, 2), Pt(5, 2))) {
		t.Error("tangent segment should not intersect strictly")
	}
}

// Property: for random external points, tangent length matches the
// Pythagorean relation sqrt(d² − r²).
func TestTangentLengthProperty(t *testing.T) {
	f := func(px, py, r float64) bool {
		rad := math.Abs(norm(r))
		if rad < 1e-3 {
			rad = 1e-3
		}
		p := Pt(norm(px), norm(py))
		c := Circ(Pt(0, 0), rad)
		d := p.Dist(c.C)
		if d <= rad*1.001 {
			return true // skip near-boundary and interior points
		}
		t1, _, ok := c.TangentPoints(p)
		if !ok {
			return false
		}
		want := math.Sqrt(d*d - rad*rad)
		return math.Abs(p.Dist(t1)-want) < 1e-6*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
