package detail

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// Map-grid reference implementation of the DRC spacing scan: the
// `map[[2]int][]int` spatial hash plus per-unit `map[[2]int]bool` seen-set
// the engine shipped with before the flat CSR grid replaced them. It is kept
// verbatim (absolute Floor-derived keys and all) as the differential
// baseline: TestDRCFlatHashMatchesMapGrid asserts the production engine's
// findings are byte-identical to this implementation on every dense case.

type mapGridLayer struct {
	layer int
	cell  float64
	segs  []netSeg
	grid  map[[2]int][]int
}

func (l *mapGridLayer) key(p geom.Point) [2]int {
	return [2]int{int(math.Floor(p.X / l.cell)), int(math.Floor(p.Y / l.cell))}
}

// newMapGridLayer rebuilds a prepared layer's spatial hash as the legacy map
// grid at an arbitrary cell size (so tests can also reproduce the pre-fix
// pitch-derived sizing).
func newMapGridLayer(l *drcLayer, cell float64) *mapGridLayer {
	n := &mapGridLayer{layer: l.layer, cell: cell, segs: l.segs}
	n.grid = make(map[[2]int][]int)
	for i, e := range n.segs {
		k0 := n.key(e.seg.A)
		k1 := n.key(e.seg.B)
		for x := min(k0[0], k1[0]); x <= max(k0[0], k1[0]); x++ {
			for y := min(k0[1], k1[1]); y <= max(k0[1], k1[1]); y++ {
				n.grid[[2]int{x, y}] = append(n.grid[[2]int{x, y}], i)
			}
		}
	}
	return n
}

// spacingUnit is the legacy map-based scan, kept semantically verbatim:
// per-unit seen map keyed by segment pair, marked on violation.
func (l *mapGridLayer) spacingUnit(lo, hi int,
	sameNet func(a, b int) bool, clearFn func(a, b int) float64) []Violation {
	const eps = 1e-6
	var out []Violation
	seen := make(map[[2]int]bool)
	for si := lo; si < hi; si++ {
		s := l.segs[si]
		k0 := l.key(s.seg.A)
		k1 := l.key(s.seg.B)
		for x := min(k0[0], k1[0]) - 1; x <= max(k0[0], k1[0])+1; x++ {
			for y := min(k0[1], k1[1]) - 1; y <= max(k0[1], k1[1])+1; y++ {
				for _, ei := range l.grid[[2]int{x, y}] {
					e := l.segs[ei]
					if e.net <= s.net || sameNet(e.net, s.net) {
						continue
					}
					if seen[[2]int{si, ei}] {
						continue
					}
					limit := clearFn(s.net, e.net)
					dist, pa, _ := s.seg.DistToSegment(e.seg)
					if dist >= limit-eps {
						continue
					}
					seen[[2]int{si, ei}] = true
					out = append(out, Violation{
						Kind: SpacingViolation, Layer: l.layer,
						NetA: s.net, NetB: e.net, Where: pa,
						Value: dist, Limit: limit,
					})
				}
			}
		}
	}
	return out
}

// mapGridFindings mirrors CheckDRCParallel's serial path with the legacy
// map-grid spacing scan substituted for the flat one: same layer
// preparation, same wire-rule and obstacle units, same canonical sort.
func mapGridFindings(routes []*Route, d *design.Design) []Violation {
	var out []Violation
	cell := indexCell(d)
	for layer := 0; layer < d.WireLayers; layer++ {
		l := buildLayer(routes, layer, cell, &gridScratch{})
		ref := newMapGridLayer(l, cell)
		out = append(out, ref.spacingUnit(0, len(ref.segs), d.SameGroup, d.Clearance)...)
		out = append(out, l.wireRuleUnit(0, len(l.lines), d.Rules)...)
	}
	if len(d.Obstacles) > 0 {
		out = append(out, obstacleUnit(routes, 0, len(routes), d)...)
	}
	sortViolations(out)
	return out
}

// TestDRCFlatHashMatchesMapGrid is the tentpole's differential pin: on every
// dense benchmark the flat CSR spatial hash yields byte-identical sorted
// findings to the legacy map-grid implementation, at pool sizes 1 and 4.
func TestDRCFlatHashMatchesMapGrid(t *testing.T) {
	cases := design.DenseNames()
	if testing.Short() {
		cases = cases[:2]
	}
	for _, name := range cases {
		d, routes := routedCase(t, name)
		want := mapGridFindings(routes, d)
		ref := fmt.Sprintf("%v", want)
		for _, workers := range []int{1, 4} {
			got := CheckDRCParallel(routes, d, DRCOptions{Workers: workers})
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: flat-hash findings differ from map-grid reference at %d workers (%d vs %d)",
					name, workers, len(got), len(want))
			}
			if s := fmt.Sprintf("%v", got); s != ref {
				t.Fatalf("%s: flat-hash findings not byte-identical to map-grid reference at %d workers",
					name, workers)
			}
		}
		t.Logf("%s: %d findings byte-identical to map-grid reference", name, len(want))
	}
}
