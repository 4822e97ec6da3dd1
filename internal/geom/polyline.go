package geom

import "math"

// Polyline is an ordered open chain of points: the r(γ_i, γ_j) detailed
// route primitive of the paper, a list of segments connecting two access
// points.
type Polyline []Point

// Length returns the total Euclidean length of the polyline.
func (pl Polyline) Length() float64 {
	var sum float64
	for i := 1; i < len(pl); i++ {
		sum += pl[i-1].Dist(pl[i])
	}
	return sum
}

// OctilinearLength returns the length of the polyline when every segment is
// replaced by its shortest octilinear (0°/45°/90°/135°) staircase
// equivalent: for a segment with axis deltas dx, dy the staircase length is
// max+ (√2−1)·min. This is the wirelength metric of X-architecture routers:
// the length of the polyline's Octilinearize staircase.
func (pl Polyline) OctilinearLength() float64 {
	var sum float64
	for i := 1; i < len(pl); i++ {
		dx := math.Abs(pl[i].X - pl[i-1].X)
		dy := math.Abs(pl[i].Y - pl[i-1].Y)
		lo, hi := dx, dy
		if lo > hi {
			lo, hi = hi, lo
		}
		sum += hi + (math.Sqrt2-1)*lo
	}
	return sum
}

// Octilinearize replaces every segment of a polyline by its two-leg
// octilinear staircase: a 45° diagonal leg covering the smaller axis delta,
// then an axis-parallel leg for the remainder. Segments already octilinear
// pass through unchanged.
func Octilinearize(pl Polyline) Polyline {
	if len(pl) < 2 {
		return pl
	}
	out := Polyline{pl[0]}
	for i := 1; i < len(pl); i++ {
		a, b := pl[i-1], pl[i]
		dx, dy := b.X-a.X, b.Y-a.Y
		adx, ady := math.Abs(dx), math.Abs(dy)
		switch {
		case adx < Eps || ady < Eps || math.Abs(adx-ady) < Eps:
			// Already axis-parallel or exactly 45°.
		case adx > ady:
			// Diagonal leg first: covers dy on both axes.
			out = append(out, Pt(a.X+math.Copysign(ady, dx), b.Y))
		default:
			out = append(out, Pt(b.X, a.Y+math.Copysign(adx, dy)))
		}
		out = append(out, b)
	}
	return out.Simplify()
}

// Segments returns the polyline's consecutive segments. A polyline with
// fewer than two points has none.
func (pl Polyline) Segments() []Segment {
	if len(pl) < 2 {
		return nil
	}
	segs := make([]Segment, 0, len(pl)-1)
	for i := 1; i < len(pl); i++ {
		segs = append(segs, Seg(pl[i-1], pl[i]))
	}
	return segs
}

// DistToPoint returns the minimum distance from p to any segment of the
// polyline, together with the closest point on the polyline. A polyline with
// a single point measures to that point; an empty polyline returns +Inf.
//
//rdl:noalloc
func (pl Polyline) DistToPoint(p Point) (float64, Point) {
	if len(pl) == 0 {
		return math.Inf(1), Point{}
	}
	if len(pl) == 1 {
		return p.Dist(pl[0]), pl[0]
	}
	best := math.Inf(1)
	var bp Point
	for i := 1; i < len(pl); i++ {
		q := Seg(pl[i-1], pl[i]).ClosestPoint(p)
		if d := p.Dist(q); d < best {
			best, bp = d, q
		}
	}
	return best, bp
}

// DistToSegment returns the minimum distance between the polyline and
// segment s, together with the closest point on the polyline realizing it.
// An empty polyline returns +Inf.
//
//rdl:noalloc
func (pl Polyline) DistToSegment(s Segment) (float64, Point) {
	if len(pl) == 0 {
		return math.Inf(1), Point{}
	}
	if len(pl) == 1 {
		return s.DistToPoint(pl[0]), pl[0]
	}
	best := math.Inf(1)
	var bp Point
	for i := 1; i < len(pl); i++ {
		d, onPl, _ := Seg(pl[i-1], pl[i]).DistToSegment(s)
		if d < best {
			best, bp = d, onPl
		}
	}
	return best, bp
}

// Simplify returns a copy of the polyline with duplicate consecutive points
// and interior points collinear with their neighbours removed. Endpoints are
// always kept.
func (pl Polyline) Simplify() Polyline {
	// Pass 1: drop consecutive duplicates.
	dedup := Polyline{pl[0]}
	for _, p := range pl[1:] {
		if !p.ApproxEq(dedup[len(dedup)-1]) {
			dedup = append(dedup, p)
		}
	}
	if len(dedup) < 3 {
		return dedup
	}
	// Pass 2: drop interior points collinear with their neighbours when the
	// direction of travel is preserved (backtracks are kept: they carry
	// geometry).
	out := Polyline{dedup[0]}
	for i := 1; i < len(dedup)-1; i++ {
		prev := out[len(out)-1]
		cur, next := dedup[i], dedup[i+1]
		if Orient(prev, cur, next) == Collinear && cur.Sub(prev).Dot(next.Sub(cur)) > 0 {
			continue
		}
		out = append(out, cur)
	}
	return append(out, dedup[len(dedup)-1])
}

// SimplifyInPlace is Simplify without the copy: duplicate and collinear
// interior points are compacted within pl's own backing array and the
// shortened slice is returned. The caller must own the backing array — the
// input slice's contents are overwritten. Output bytes are identical to
// Simplify's (pinned by TestSimplifyInPlaceMatchesSimplify); the detail
// stage's scratch-arena hot paths use this form so warm iterations stay
// allocation-free.
//
//rdl:noalloc
func (pl Polyline) SimplifyInPlace() Polyline {
	if len(pl) == 0 {
		return pl
	}
	// Pass 1: drop consecutive duplicates, compacting left. The write
	// cursor never passes the read cursor, so unread points survive.
	w := 1
	for i := 1; i < len(pl); i++ {
		if !pl[i].ApproxEq(pl[w-1]) {
			pl[w] = pl[i]
			w++
		}
	}
	pl = pl[:w]
	if len(pl) < 3 {
		return pl
	}
	// Pass 2: drop interior collinear points preserving direction of
	// travel, mirroring Simplify's second pass.
	last := pl[len(pl)-1]
	w = 1
	for i := 1; i < len(pl)-1; i++ {
		prev := pl[w-1]
		cur, next := pl[i], pl[i+1]
		if Orient(prev, cur, next) == Collinear && cur.Sub(prev).Dot(next.Sub(cur)) > 0 {
			continue
		}
		pl[w] = cur
		w++
	}
	pl[w] = last
	return pl[:w+1]
}

// MaxTurnAngle returns the largest turn angle (deviation from straight, in
// radians) over the interior vertices. Straight or two-point polylines
// return 0. The paper's minimum angle constraint requires this to stay
// ≤ π/2 (all turns at obtuse interior angles).
func (pl Polyline) MaxTurnAngle() float64 {
	var worst float64
	for i := 1; i+1 < len(pl); i++ {
		if a := TurnAngle(pl[i-1], pl[i], pl[i+1]); a > worst {
			worst = a
		}
	}
	return worst
}

// MinTurnSpacing returns the smallest distance between two consecutive
// interior turn vertices, which the paper's minimum turn-to-turn rule (w_x)
// bounds from below. Polylines with fewer than two interior vertices return
// +Inf.
func (pl Polyline) MinTurnSpacing() float64 {
	if len(pl) < 4 {
		return math.Inf(1)
	}
	best := math.Inf(1)
	for i := 2; i+1 < len(pl); i++ {
		if d := pl[i-1].Dist(pl[i]); d < best {
			best = d
		}
	}
	return best
}
