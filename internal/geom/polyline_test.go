package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPolylineLength(t *testing.T) {
	pl := Polyline{Pt(0, 0), Pt(3, 4), Pt(3, 10)}
	if got := pl.Length(); !ApproxEq(got, 11) {
		t.Errorf("Length = %v, want 11", got)
	}
	if got := (Polyline{Pt(1, 1)}).Length(); got != 0 {
		t.Errorf("single-point length = %v", got)
	}
	if got := Polyline(nil).Length(); got != 0 {
		t.Errorf("empty length = %v", got)
	}
}

func TestOctilinearLength(t *testing.T) {
	// Pure axis move: octilinear == Euclidean.
	pl := Polyline{Pt(0, 0), Pt(10, 0)}
	if got := pl.OctilinearLength(); !ApproxEq(got, 10) {
		t.Errorf("axis octilinear = %v", got)
	}
	// Pure diagonal move: octilinear == Euclidean (45° allowed).
	pl = Polyline{Pt(0, 0), Pt(10, 10)}
	if got := pl.OctilinearLength(); math.Abs(got-10*math.Sqrt2) > 1e-9 {
		t.Errorf("diagonal octilinear = %v, want %v", got, 10*math.Sqrt2)
	}
	// General direction is strictly longer than Euclidean.
	pl = Polyline{Pt(0, 0), Pt(10, 3)}
	if pl.OctilinearLength() <= pl.Length() {
		t.Error("octilinear length must exceed Euclidean for generic angles")
	}
	// Expected value: max + (√2−1)·min = 10 + (√2−1)*3.
	want := 10 + (math.Sqrt2-1)*3
	if got := pl.OctilinearLength(); math.Abs(got-want) > 1e-9 {
		t.Errorf("octilinear = %v, want %v", got, want)
	}
}

func TestSegmentsAndReversed(t *testing.T) {
	pl := Polyline{Pt(0, 0), Pt(1, 0), Pt(1, 1)}
	segs := pl.Segments()
	if len(segs) != 2 {
		t.Fatalf("Segments len = %d", len(segs))
	}
	if segs[0] != Seg(Pt(0, 0), Pt(1, 0)) || segs[1] != Seg(Pt(1, 0), Pt(1, 1)) {
		t.Error("Segments content wrong")
	}
	if (Polyline{Pt(0, 0)}).Segments() != nil {
		t.Error("single-point polyline has no segments")
	}
	r := pl.Reversed()
	if r[0] != Pt(1, 1) || r[2] != Pt(0, 0) {
		t.Error("Reversed wrong")
	}
	if !ApproxEq(r.Length(), pl.Length()) {
		t.Error("reversal changed length")
	}
}

func TestPolylineDistToPoint(t *testing.T) {
	pl := Polyline{Pt(0, 0), Pt(10, 0), Pt(10, 10)}
	d, cp := pl.DistToPoint(Pt(5, 3))
	if !ApproxEq(d, 3) || !cp.ApproxEq(Pt(5, 0)) {
		t.Errorf("DistToPoint = %v at %v", d, cp)
	}
	d, cp = pl.DistToPoint(Pt(13, 5))
	if !ApproxEq(d, 3) || !cp.ApproxEq(Pt(10, 5)) {
		t.Errorf("DistToPoint second leg = %v at %v", d, cp)
	}
	d, _ = Polyline(nil).DistToPoint(Pt(0, 0))
	if !math.IsInf(d, 1) {
		t.Error("empty polyline distance should be +Inf")
	}
	d, _ = Polyline{Pt(2, 0)}.DistToPoint(Pt(0, 0))
	if !ApproxEq(d, 2) {
		t.Errorf("single-point distance = %v", d)
	}
}

func TestPolylineDistToSegment(t *testing.T) {
	pl := Polyline{Pt(0, 0), Pt(10, 0)}
	d, _ := pl.DistToSegment(Seg(Pt(0, 5), Pt(10, 5)))
	if !ApproxEq(d, 5) {
		t.Errorf("parallel seg dist = %v", d)
	}
	d, _ = pl.DistToSegment(Seg(Pt(5, -2), Pt(5, 2)))
	if d != 0 {
		t.Errorf("crossing seg dist = %v", d)
	}
}

func TestSimplify(t *testing.T) {
	pl := Polyline{Pt(0, 0), Pt(5, 0), Pt(5, 0), Pt(10, 0), Pt(10, 5)}
	s := pl.Simplify()
	want := Polyline{Pt(0, 0), Pt(10, 0), Pt(10, 5)}
	if len(s) != len(want) {
		t.Fatalf("Simplify len = %d, want %d (%v)", len(s), len(want), s)
	}
	for i := range want {
		if !s[i].ApproxEq(want[i]) {
			t.Errorf("Simplify[%d] = %v, want %v", i, s[i], want[i])
		}
	}
	if !ApproxEq(s.Length(), pl.Length()) {
		t.Error("Simplify changed length")
	}
	// A back-tracking collinear point must NOT be removed (direction flips).
	zig := Polyline{Pt(0, 0), Pt(10, 0), Pt(5, 0)}
	if got := zig.Simplify(); len(got) != 3 {
		t.Errorf("backtrack simplified away: %v", got)
	}
}

func TestMaxTurnAngle(t *testing.T) {
	straight := Polyline{Pt(0, 0), Pt(5, 0), Pt(10, 0)}
	if a := straight.MaxTurnAngle(); !ApproxEq(a, 0) {
		t.Errorf("straight max turn = %v", a)
	}
	right := Polyline{Pt(0, 0), Pt(5, 0), Pt(5, 5)}
	if a := right.MaxTurnAngle(); !ApproxEq(a, math.Pi/2) {
		t.Errorf("right max turn = %v", a)
	}
	if a := (Polyline{Pt(0, 0), Pt(1, 1)}).MaxTurnAngle(); a != 0 {
		t.Errorf("two-point max turn = %v", a)
	}
}

func TestMinTurnSpacing(t *testing.T) {
	pl := Polyline{Pt(0, 0), Pt(5, 0), Pt(5, 2), Pt(10, 2)}
	if d := pl.MinTurnSpacing(); !ApproxEq(d, 2) {
		t.Errorf("MinTurnSpacing = %v, want 2", d)
	}
	if d := (Polyline{Pt(0, 0), Pt(5, 0), Pt(5, 5)}).MinTurnSpacing(); !math.IsInf(d, 1) {
		t.Error("single-turn polyline should report +Inf spacing")
	}
}

// Property: Simplify never increases point count and preserves length.
func TestSimplifyProperty(t *testing.T) {
	f := func(coords []float64) bool {
		if len(coords) < 4 {
			return true
		}
		var pl Polyline
		for i := 0; i+1 < len(coords); i += 2 {
			pl = append(pl, Pt(norm(coords[i]), norm(coords[i+1])))
		}
		s := pl.Simplify()
		if len(s) > len(pl) {
			return false
		}
		return math.Abs(s.Length()-pl.Length()) < 1e-6*(1+pl.Length())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: octilinear length is always ≥ Euclidean length, with equality
// only on axis or 45° segments.
func TestOctilinearDominance(t *testing.T) {
	f := func(coords []float64) bool {
		if len(coords) < 4 {
			return true
		}
		var pl Polyline
		for i := 0; i+1 < len(coords); i += 2 {
			pl = append(pl, Pt(norm(coords[i]), norm(coords[i+1])))
		}
		return pl.OctilinearLength() >= pl.Length()-1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSimplifyInPlaceMatchesSimplify pins byte-identical output between the
// copying and in-place simplifiers on deterministic pseudo-random polylines
// (duplicates, collinear runs, backtracks and spikes included), plus the
// empty and tiny edge cases the copying form cannot take.
func TestSimplifyInPlaceMatchesSimplify(t *testing.T) {
	if got := (Polyline{}).SimplifyInPlace(); len(got) != 0 {
		t.Fatalf("empty: got %v", got)
	}
	if got := (Polyline{Pt(1, 2)}).SimplifyInPlace(); len(got) != 1 || got[0] != Pt(1, 2) {
		t.Fatalf("single: got %v", got)
	}
	// xorshift so the cases are deterministic without math/rand.
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for tc := 0; tc < 500; tc++ {
		n := int(next()%12) + 1
		pl := make(Polyline, 0, n)
		x, y := 0.0, 0.0
		for i := 0; i < n; i++ {
			switch next() % 5 {
			case 0: // exact duplicate of the previous point
				if len(pl) > 0 {
					pl = append(pl, pl[len(pl)-1])
					continue
				}
				fallthrough
			case 1: // collinear step
				x += 1
			case 2: // collinear backtrack
				x -= 2
			case 3:
				y += float64(next()%7) - 3
			default:
				x += float64(next()%5) - 2
				y += 1
			}
			pl = append(pl, Pt(x, y))
		}
		want := pl.Simplify()
		cp := make(Polyline, len(pl))
		copy(cp, pl)
		got := cp.SimplifyInPlace()
		if len(got) != len(want) {
			t.Fatalf("case %d (%v): in-place len %d, copy len %d", tc, pl, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("case %d (%v): in-place[%d]=%v, copy=%v", tc, pl, i, got[i], want[i])
			}
		}
	}
}
