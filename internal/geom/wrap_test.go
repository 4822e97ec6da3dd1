package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The taut-string optimum of the paper's Lemma 1 and the two-tangent chord
// that fit routing builds (Circle.TangentIntersection), kept here as the
// reference the chord construction is measured against.

// optimalWrapLength returns the length of the shortest path from a to b
// that stays outside circle c: if the straight segment clears the circle it
// is |ab|; otherwise it is the taut-string path tangent–arc–tangent of the
// paper's Lemma 1 (segments off the boundary, arcs on it). It reports false
// when either endpoint lies strictly inside the circle (no such path
// exists).
func optimalWrapLength(a, b Point, c Circle) (float64, bool) {
	da := a.Dist(c.C)
	db := b.Dist(c.C)
	if da < c.R-Eps || db < c.R-Eps {
		return 0, false
	}
	if !c.IntersectSegment(Seg(a, b)) {
		return a.Dist(b), true
	}
	// Tangent lengths from each endpoint.
	ta := math.Sqrt(math.Max(0, da*da-c.R*c.R))
	tb := math.Sqrt(math.Max(0, db*db-c.R*c.R))
	// Central angle between a and b as seen from the circle center.
	gamma := AngleAt(c.C, a, b)
	// Angles consumed by the two tangent constructions.
	alpha := math.Acos(Clamp(c.R/math.Max(da, c.R), -1, 1))
	beta := math.Acos(Clamp(c.R/math.Max(db, c.R), -1, 1))
	phi := gamma - alpha - beta
	if phi < 0 {
		phi = 0
	}
	return ta + tb + c.R*phi, true
}

// wrapApexLength returns the length of the two-tangent chord approximation
// the fit-routing construction produces for a single constraint circle: the
// path a → I → b where I is the intersection of the tangents from a and b
// on the side away from ref. It reports false when the construction fails
// (endpoint inside the circle or degenerate tangents).
//
// The approximation replaces the optimal arc by its tangent chords, so it
// is always ≥ optimalWrapLength and coincides with it as the wrap angle
// approaches zero — the "good approximation of the optimal solution"
// observation behind the paper's Theorem 2.
func wrapApexLength(a, b Point, c Circle, ref Point) (float64, bool) {
	i, ok := c.TangentIntersection(a, b, ref)
	if !ok {
		return 0, false
	}
	return a.Dist(i) + i.Dist(b), true
}

func TestOptimalWrapLengthClear(t *testing.T) {
	// Segment clears the circle: the straight distance is optimal.
	c := Circ(Pt(0, 5), 1)
	l, ok := optimalWrapLength(Pt(-10, 0), Pt(10, 0), c)
	if !ok || !ApproxEq(l, 20) {
		t.Errorf("clear path = %v, %v", l, ok)
	}
}

func TestOptimalWrapLengthSymmetric(t *testing.T) {
	// Classic configuration: wrap a unit circle centered between the
	// endpoints. For a = (-d, 0), b = (d, 0), r = 1:
	// length = 2·sqrt(d²−1) + φ with φ = π − 2·acos(1/d).
	d := 3.0
	c := Circ(Pt(0, 0), 1)
	l, ok := optimalWrapLength(Pt(-d, 0), Pt(d, 0), c)
	if !ok {
		t.Fatal("wrap failed")
	}
	want := 2*math.Sqrt(d*d-1) + (math.Pi - 2*math.Acos(1/d))
	if math.Abs(l-want) > 1e-9 {
		t.Errorf("wrap length = %v, want %v", l, want)
	}
	// And it must beat the naive over-the-top square detour.
	if l >= 2*d+2 {
		t.Error("taut path longer than crude detour")
	}
}

func TestOptimalWrapLengthInterior(t *testing.T) {
	c := Circ(Pt(0, 0), 2)
	if _, ok := optimalWrapLength(Pt(0.5, 0), Pt(5, 0), c); ok {
		t.Error("interior endpoint must fail")
	}
}

func TestWrapApexAtLeastOptimal(t *testing.T) {
	c := Circ(Pt(0, 0), 1)
	a, b := Pt(-3, 0), Pt(3, 0)
	ref := Pt(0, -10)
	opt, ok := optimalWrapLength(a, b, c)
	if !ok {
		t.Fatal("optimal failed")
	}
	apex, ok := wrapApexLength(a, b, c, ref)
	if !ok {
		t.Fatal("apex failed")
	}
	if apex < opt-1e-9 {
		t.Fatalf("chord approximation %v beat the optimum %v", apex, opt)
	}
	// For this moderate wrap the chord approximation stays within 5%.
	if apex > opt*1.05 {
		t.Errorf("apex %v too far above optimum %v", apex, opt)
	}
}

// Property: over random legal configurations the fit-routing chord
// approximation is bounded below by the taut-string optimum and above by a
// modest constant factor (the Theorem 2 "good approximation" claim). The
// factor 4/π ≈ 1.273 bounds the arc-to-tangent-chords ratio for wraps up to
// a half circle, and the straight tangent legs only dilute it.
func TestWrapApproximationRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for trial := 0; trial < 500; trial++ {
		r := 0.5 + rng.Float64()*2
		c := Circ(Pt(0, 0), r)
		angA := rng.Float64() * 2 * math.Pi
		angB := rng.Float64() * 2 * math.Pi
		da := r * (1.05 + rng.Float64()*4)
		db := r * (1.05 + rng.Float64()*4)
		a := Pt(math.Cos(angA), math.Sin(angA)).Scale(da)
		b := Pt(math.Cos(angB), math.Sin(angB)).Scale(db)
		if !c.IntersectSegment(Seg(a, b)) {
			continue // no wrap needed; nothing to compare
		}
		opt, ok := optimalWrapLength(a, b, c)
		if !ok {
			continue
		}
		// The detour side: away from the segment's side of the center.
		q := Seg(a, b).ClosestPoint(c.C)
		away := q.Sub(c.C)
		if ApproxZero(away.Norm()) {
			continue
		}
		ref := c.C.Sub(away)
		apex, ok := wrapApexLength(a, b, c, ref)
		if !ok {
			continue
		}
		checked++
		if apex < opt-1e-6 {
			t.Fatalf("trial %d: apex %v < optimum %v", trial, apex, opt)
		}
		if apex > opt*4/math.Pi+1e-6 {
			t.Fatalf("trial %d: apex %v exceeds %v × 4/π", trial, apex, opt)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d wrap configurations checked", checked)
	}
}
