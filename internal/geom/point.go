package geom

import (
	"fmt"
	"math"
)

// Point is a location in the 2-D plane. It doubles as a 2-D vector; the
// vector methods (Add, Sub, Scale, Dot, Cross, ...) treat it as one.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String formats the point as "(x, y)" with compact precision.
func (p Point) String() string { return fmt.Sprintf("(%.4g, %.4g)", p.X, p.Y) }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product p · q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the 3-D cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Norm2 returns the squared Euclidean length of p viewed as a vector.
func (p Point) Norm2() float64 { return p.X*p.X + p.Y*p.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Unit returns the unit vector in the direction of p. The zero vector is
// returned unchanged.
func (p Point) Unit() Point {
	n := p.Norm()
	//rdl:allow floateq exact-zero guards division by zero only: any nonzero norm, however small, divides finely
	if n == 0 {
		return p
	}
	return Point{p.X / n, p.Y / n}
}

// Perp returns p rotated 90° counterclockwise.
func (p Point) Perp() Point { return Point{-p.Y, p.X} }

// Rotate returns p rotated by theta radians counterclockwise about the
// origin.
func (p Point) Rotate(theta float64) Point {
	s, c := math.Sincos(theta)
	return Point{p.X*c - p.Y*s, p.X*s + p.Y*c}
}

// Lerp returns the linear interpolation between p and q at parameter t,
// with t=0 yielding p and t=1 yielding q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// ApproxEq reports whether p and q coincide within Eps per coordinate.
func (p Point) ApproxEq(q Point) bool {
	return ApproxEq(p.X, q.X) && ApproxEq(p.Y, q.Y)
}

// Mid returns the midpoint of p and q.
func Mid(p, q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Centroid returns the arithmetic mean of the given points. It panics if
// called with no points.
func Centroid(pts ...Point) Point {
	if len(pts) == 0 {
		panic("geom: Centroid of no points")
	}
	var c Point
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}

// Rect is an axis-aligned rectangle defined by its minimum and maximum
// corners. A Rect with Min == Max is a degenerate (empty-area) rectangle but
// still contains its single point.
type Rect struct {
	Min, Max Point
}

// R builds a Rect from two opposite corners given in any order.
func R(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Min: Point{x0, y0}, Max: Point{x1, y1}}
}

// W returns the width of the rectangle.
func (r Rect) W() float64 { return r.Max.X - r.Min.X }

// H returns the height of the rectangle.
func (r Rect) H() float64 { return r.Max.Y - r.Min.Y }

// Center returns the center point of the rectangle.
func (r Rect) Center() Point { return Mid(r.Min, r.Max) }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside r (boundary inclusive).
func (r Rect) ContainsRect(s Rect) bool {
	return r.Contains(s.Min) && r.Contains(s.Max)
}

// Intersects reports whether r and s overlap (boundary touch counts).
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Expand returns r grown by d on every side. Negative d shrinks it; the
// result may become inverted if d is too negative, which callers must guard
// against themselves.
func (r Rect) Expand(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// BoundingRect returns the axis-aligned bounding rectangle of the points.
// It panics if called with no points.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingRect of no points")
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}
