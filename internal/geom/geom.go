// Package geom provides the 2-D computational-geometry substrate used by the
// any-angle RDL router: points, vectors, segments, circles, robust-enough
// orientation and in-circle predicates, tangent constructions, angles and
// bisectors, polylines, and convex hulls.
//
// All coordinates are in micrometres (µm), matching the units the paper
// reports wirelength in. The package is pure math: it has no dependency on
// the design model or the routing graph.
package geom

import "math"

// Eps is the default absolute tolerance used by the approximate comparisons
// in this package, and the one tolerance of every design-rule check: DRC,
// the detail stage's legality index and fit routing, and the verifier all
// call a distance legal when it reaches its limit minus Eps. Routing
// coordinates are in µm and designs span a few millimetres, so 1e-9 µm is
// far below any manufacturable feature size while staying well above
// float64 noise for the magnitudes involved.
const Eps = 1e-9

// ApproxEq reports whether a and b are within Eps of each other.
func ApproxEq(a, b float64) bool {
	return math.Abs(a-b) <= Eps
}

// ApproxZero reports whether v is within Eps of zero.
func ApproxZero(v float64) bool {
	return math.Abs(v) <= Eps
}

// Clamp limits v to the inclusive range [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
