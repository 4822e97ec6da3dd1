package geom

import (
	"testing"
	"testing/quick"
)

func TestOrient(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 0)
	if Orient(a, b, Pt(5, 5)) != CounterClockwise {
		t.Error("left point should be CCW")
	}
	if Orient(a, b, Pt(5, -5)) != Clockwise {
		t.Error("right point should be CW")
	}
	if Orient(a, b, Pt(20, 0)) != Collinear {
		t.Error("collinear point misclassified")
	}
}

func TestOrientString(t *testing.T) {
	if Clockwise.String() != "clockwise" || CounterClockwise.String() != "counterclockwise" || Collinear.String() != "collinear" {
		t.Error("Orientation.String wrong")
	}
}

func TestSignedArea2(t *testing.T) {
	// CCW unit right triangle has area 1/2 → doubled 1.
	if got := SignedArea2(Pt(0, 0), Pt(1, 0), Pt(0, 1)); !ApproxEq(got, 1) {
		t.Errorf("SignedArea2 = %v", got)
	}
	if got := SignedArea2(Pt(0, 0), Pt(0, 1), Pt(1, 0)); !ApproxEq(got, -1) {
		t.Errorf("CW SignedArea2 = %v", got)
	}
}

func TestInCircle(t *testing.T) {
	// CCW unit circle triangle; origin inside, far point outside.
	a, b, c := Pt(1, 0), Pt(0, 1), Pt(-1, 0)
	if !InCircle(a, b, c, Pt(0, 0)) {
		t.Error("origin should be inside circumcircle")
	}
	if InCircle(a, b, c, Pt(5, 5)) {
		t.Error("far point should be outside")
	}
	// Point exactly on the circle is not strictly inside.
	if InCircle(a, b, c, Pt(0, -1)) {
		t.Error("cocircular point must not test inside")
	}
}

func TestPointInTriangle(t *testing.T) {
	a, b, c := Pt(0, 0), Pt(10, 0), Pt(0, 10)
	if !PointInTriangle(Pt(2, 2), a, b, c) {
		t.Error("interior point rejected")
	}
	if !PointInTriangle(Pt(5, 0), a, b, c) {
		t.Error("edge point rejected")
	}
	if !PointInTriangle(a, a, b, c) {
		t.Error("vertex rejected")
	}
	if PointInTriangle(Pt(6, 6), a, b, c) {
		t.Error("exterior point accepted")
	}
	// Winding order must not matter.
	if !PointInTriangle(Pt(2, 2), a, c, b) {
		t.Error("CW winding rejected interior point")
	}
}

// Property: Orient is antisymmetric under swapping two arguments.
func TestOrientAntisymmetry(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(norm(ax), norm(ay)), Pt(norm(bx), norm(by)), Pt(norm(cx), norm(cy))
		o1 := Orient(a, b, c)
		o2 := Orient(b, a, c)
		if o1 == Collinear {
			return o2 == Collinear
		}
		return o1 == -o2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Orient is invariant under cyclic rotation of its arguments.
func TestOrientCyclic(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(norm(ax), norm(ay)), Pt(norm(bx), norm(by)), Pt(norm(cx), norm(cy))
		return Orient(a, b, c) == Orient(b, c, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the centroid of a triangle is always inside it.
func TestCentroidInsideTriangle(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(norm(ax), norm(ay)), Pt(norm(bx), norm(by)), Pt(norm(cx), norm(cy))
		if Orient(a, b, c) == Collinear {
			return true
		}
		return PointInTriangle(Centroid(a, b, c), a, b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
