package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Pt(3, 4)
	q := Pt(1, -2)
	if got := p.Add(q); got != Pt(4, 2) {
		t.Errorf("Add = %v, want (4,2)", got)
	}
	if got := p.Sub(q); got != Pt(2, 6) {
		t.Errorf("Sub = %v, want (2,6)", got)
	}
	if got := p.Scale(2); got != Pt(6, 8) {
		t.Errorf("Scale = %v, want (6,8)", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v, want -5", got)
	}
	if got := p.Cross(q); got != -6-4 {
		t.Errorf("Cross = %v, want -10", got)
	}
	if got := p.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := p.Norm2(); got != 25 {
		t.Errorf("Norm2 = %v, want 25", got)
	}
}

func TestPointDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := Pt(1, 1).Dist2(Pt(4, 5)); d != 25 {
		t.Errorf("Dist2 = %v, want 25", d)
	}
}

func TestUnitVector(t *testing.T) {
	u := Pt(3, 4).Unit()
	if !ApproxEq(u.Norm(), 1) {
		t.Errorf("Unit norm = %v, want 1", u.Norm())
	}
	z := Pt(0, 0).Unit()
	if z != Pt(0, 0) {
		t.Errorf("Unit of zero = %v, want zero", z)
	}
}

func TestPerpAndRotate(t *testing.T) {
	p := Pt(1, 0)
	if got := p.Perp(); !got.ApproxEq(Pt(0, 1)) {
		t.Errorf("Perp = %v, want (0,1)", got)
	}
	r := p.Rotate(math.Pi / 2)
	if !r.ApproxEq(Pt(0, 1)) {
		t.Errorf("Rotate(π/2) = %v, want (0,1)", r)
	}
	r = p.Rotate(math.Pi)
	if !r.ApproxEq(Pt(-1, 0)) {
		t.Errorf("Rotate(π) = %v, want (-1,0)", r)
	}
}

func TestLerpAndMid(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := a.Lerp(b, 0.5); !got.ApproxEq(Pt(5, 10)) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
	if got := a.Lerp(b, 0); !got.ApproxEq(a) {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); !got.ApproxEq(b) {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := Mid(a, b); !got.ApproxEq(Pt(5, 10)) {
		t.Errorf("Mid = %v", got)
	}
}

func TestCentroid(t *testing.T) {
	c := Centroid(Pt(0, 0), Pt(3, 0), Pt(0, 3))
	if !c.ApproxEq(Pt(1, 1)) {
		t.Errorf("Centroid = %v, want (1,1)", c)
	}
	defer func() {
		if recover() == nil {
			t.Error("Centroid() of no points did not panic")
		}
	}()
	Centroid()
}

func TestRectBasics(t *testing.T) {
	r := R(10, 20, 0, 5) // corners given out of order
	if r.Min != Pt(0, 5) || r.Max != Pt(10, 20) {
		t.Fatalf("R normalization wrong: %+v", r)
	}
	if r.W() != 10 || r.H() != 15 {
		t.Errorf("W/H = %v/%v", r.W(), r.H())
	}
	if !r.Center().ApproxEq(Pt(5, 12.5)) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.Contains(Pt(0, 5)) || !r.Contains(Pt(10, 20)) || !r.Contains(Pt(5, 10)) {
		t.Error("Contains should include boundary and interior")
	}
	if r.Contains(Pt(-1, 10)) || r.Contains(Pt(5, 21)) {
		t.Error("Contains should exclude exterior")
	}
}

func TestRectIntersectsUnion(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	c := R(11, 11, 20, 20)
	if !a.Intersects(b) {
		t.Error("a should intersect b")
	}
	if a.Intersects(c) {
		t.Error("a should not intersect c")
	}
	// Touching boundary counts.
	d := R(10, 0, 20, 10)
	if !a.Intersects(d) {
		t.Error("touching rects should intersect")
	}
	u := BoundingRect([]Point{a.Min, a.Max, c.Min, c.Max})
	if u.Min != Pt(0, 0) || u.Max != Pt(20, 20) {
		t.Errorf("union bounding rect = %+v", u)
	}
	if !a.ContainsRect(R(1, 1, 9, 9)) {
		t.Error("ContainsRect failed for nested rect")
	}
	if a.ContainsRect(b) {
		t.Error("ContainsRect must reject partially overlapping rect")
	}
}

func TestRectExpand(t *testing.T) {
	r := R(0, 0, 10, 10).Expand(2)
	if r.Min != Pt(-2, -2) || r.Max != Pt(12, 12) {
		t.Errorf("Expand = %+v", r)
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{Pt(3, 1), Pt(-2, 7), Pt(0, 0)}
	r := BoundingRect(pts)
	if r.Min != Pt(-2, 0) || r.Max != Pt(3, 7) {
		t.Errorf("BoundingRect = %+v", r)
	}
	defer func() {
		if recover() == nil {
			t.Error("BoundingRect(nil) did not panic")
		}
	}()
	BoundingRect(nil)
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Error("Clamp wrong")
	}
}

// Property: distance is symmetric and satisfies the triangle inequality.
func TestDistProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(norm(ax), norm(ay)), Pt(norm(bx), norm(by)), Pt(norm(cx), norm(cy))
		if !ApproxEq(a.Dist(b), b.Dist(a)) {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: rotation preserves norm.
func TestRotatePreservesNorm(t *testing.T) {
	f := func(x, y, theta float64) bool {
		p := Pt(norm(x), norm(y))
		th := math.Mod(norm(theta), 2*math.Pi)
		r := p.Rotate(th)
		return math.Abs(r.Norm()-p.Norm()) < 1e-6*(1+p.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Lerp endpoints and midpoint consistency.
func TestLerpProperties(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(norm(ax), norm(ay)), Pt(norm(bx), norm(by))
		m := a.Lerp(b, 0.5)
		return math.Abs(m.Dist(a)-m.Dist(b)) < 1e-6*(1+a.Dist(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// norm maps an arbitrary quick-generated float into a sane coordinate range,
// discarding NaN/Inf and extreme magnitudes that no design would contain.
func norm(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e4)
}
