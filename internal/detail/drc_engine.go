package detail

import (
	"math"
	"sort"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/obs"
	"rdlroute/internal/pool"
)

// The DRC engine decomposes the check into independent work units and runs
// them on a worker pool. Unit boundaries are fixed (independent of the
// worker count) and the merged findings are canonically sorted, so any pool
// size produces byte-identical output. Each layer's segments sit in a
// flatGrid (legality.go) sized by indexCell, and the spacing scan walks it
// with the same near query the polish and reassign passes use. Workers own
// their scratches (pool.RunWith hands every unit its worker slot), which
// persist across all units of a run.

const (
	// drcSpacingChunk is the number of source segments per spacing unit.
	drcSpacingChunk = 256
	// drcLineChunk is the number of polylines per wire-rule unit and routes
	// per obstacle unit.
	drcLineChunk = 64
)

// drcLayer is the prepared per-layer state the spacing and wire-rule units
// read concurrently (read-only after the build phase).
type drcLayer struct {
	layer int
	segs  []netSeg
	lines []RouteOnLayer
	grid  flatGrid
}

// buildLayer collects the layer's polylines and segments and fills its grid
// with the given cell, which must be at least the largest pairwise
// clearance: the spacing scan only visits cells within ±1 of a segment's
// own cells, so a pair whose clearance exceeded the cell could sit outside
// the window and a real violation would be silently missed.
func buildLayer(routes []*Route, layer int, cell float64, scr *gridScratch) *drcLayer {
	l := &drcLayer{
		layer: layer,
		segs:  appendLayerSegs(nil, routes, layer),
		lines: SegmentsOnLayer(routes, layer),
	}
	l.grid.fillNetSegs(l.segs, cell, scr)
	return l
}

// spacingUnit checks the source segments segs[lo:hi] against the grid.
// Each unordered pair is examined once, from its lower net's side, and
// yields at most one finding: near returns every partner once even when
// the two segments share several cells, so findings are unique per segment
// pair, not per float witness point.
//
//rdl:noalloc
func (l *drcLayer) spacingUnit(lo, hi int, d *design.Design, scr *gridScratch) []Violation {
	const eps = 1e-6
	var out []Violation
	for si := lo; si < hi; si++ {
		s := &l.segs[si]
		for _, ei := range l.grid.near(s.seg, scr) {
			e := &l.segs[ei]
			if e.net <= s.net || d.SameGroup(e.net, s.net) {
				continue
			}
			limit := d.Clearance(s.net, e.net)
			dist, pa, _ := s.seg.DistToSegment(e.seg)
			if dist >= limit-eps {
				continue
			}
			out = append(out, Violation{
				Kind: SpacingViolation, Layer: l.layer,
				NetA: s.net, NetB: e.net, Where: pa,
				Value: dist, Limit: limit,
			})
		}
	}
	return out
}

// wireRuleUnit checks the per-net angle and turn-distance rules over
// lines[lo:hi].
func (l *drcLayer) wireRuleUnit(lo, hi int, rules design.Rules) []Violation {
	var out []Violation
	for _, rl := range l.lines[lo:hi] {
		out = appendWireRules(out, rl.Pl, l.layer, rl.Net, rules)
	}
	return out
}

// appendWireRules appends the angle and turn-distance findings of one
// polyline: every turn sharper than 90° and every pair of successive turns
// closer than w_x.
//
//rdl:noalloc
func appendWireRules(out []Violation, pl geom.Polyline, layer, net int, rules design.Rules) []Violation {
	const eps = 1e-6
	for i := 1; i+1 < len(pl); i++ {
		if turn := geom.TurnAngle(pl[i-1], pl[i], pl[i+1]); turn > math.Pi/2+eps {
			out = append(out, Violation{
				Kind: AngleViolation, Layer: layer, NetA: net, NetB: -1,
				Where: pl[i], Value: turn, Limit: math.Pi / 2,
			})
		}
	}
	for i := 2; i+1 < len(pl); i++ {
		if d := pl[i-1].Dist(pl[i]); d < rules.MinTurnDist-eps {
			out = append(out, Violation{
				Kind: TurnDistViolation, Layer: layer, NetA: net, NetB: -1,
				Where: pl[i], Value: d, Limit: rules.MinTurnDist,
			})
		}
	}
	return out
}

// obstacleUnit checks routes[lo:hi] against the design's keep-out regions.
func obstacleUnit(routes []*Route, lo, hi int, d *design.Design) []Violation {
	var out []Violation
	for _, rt := range routes[lo:hi] {
		if rt == nil {
			continue
		}
		for _, seg := range rt.Segs {
			pl := seg.Pl
			for i := 1; i < len(pl); i++ {
				s := geom.Seg(pl[i-1], pl[i])
				if d.SegmentBlocked(s, seg.Layer, 0) {
					out = append(out, Violation{
						Kind: ObstacleViolation, Layer: seg.Layer,
						NetA: rt.Net, NetB: -1, Where: s.Mid(),
					})
				}
			}
		}
	}
	return out
}

// sortViolations puts findings into the engine's canonical order. The key is
// a total order over everything a violation carries, so the result is
// independent of unit boundaries and worker scheduling.
func sortViolations(vs []Violation) {
	sort.SliceStable(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		switch {
		case a.Layer != b.Layer:
			return a.Layer < b.Layer
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.NetA != b.NetA:
			return a.NetA < b.NetA
		case a.NetB != b.NetB:
			return a.NetB < b.NetB
		case a.Where.X != b.Where.X:
			return a.Where.X < b.Where.X
		case a.Where.Y != b.Where.Y:
			return a.Where.Y < b.Where.Y
		case a.Value != b.Value:
			return a.Value < b.Value
		default:
			return a.Limit < b.Limit
		}
	})
}

// CheckDRCParallel verifies the three §II-B wire rules and the design's
// keep-out regions over the routes and returns every violation, spacing
// once per offending segment pair. Nets of one multi-pin group carry no
// spacing rule between each other. The check fans out over a worker pool
// per (layer, grid stripe); every pool size returns the same violations
// in the same order.
func CheckDRCParallel(routes []*Route, d *design.Design, opt DRCOptions) []Violation {
	rec := obs.Or(opt.Rec)
	workers := opt.workers()
	// One scratch per worker slot, shared by the build and scan phases: the
	// stamp and counts buffers reach steady-state size after the first few
	// units and every later unit runs allocation-free against them.
	scratches := make([]gridScratch, workers)
	cell := indexCell(d)

	// Phase 1: per-layer grids, built concurrently across layers.
	span := obs.StartSpan(rec, "drc.grid")
	prepped := make([]*drcLayer, d.WireLayers)
	prepUnits := make([]func(w int) []Violation, d.WireLayers)
	for layer := range prepUnits {
		layer := layer
		prepUnits[layer] = func(w int) []Violation {
			prepped[layer] = buildLayer(routes, layer, cell, &scratches[w])
			return nil
		}
	}
	pool.RunWith(prepUnits, workers)
	span.End()

	// Phase 2: spacing stripes, wire rules, and keep-outs, in a fixed unit
	// order so the concatenation is deterministic.
	span = obs.StartSpan(rec, "drc.scan")
	var units []func(w int) []Violation
	for _, l := range prepped {
		l := l
		for lo := 0; lo < len(l.segs); lo += drcSpacingChunk {
			lo, hi := lo, min(lo+drcSpacingChunk, len(l.segs))
			units = append(units, func(w int) []Violation {
				return l.spacingUnit(lo, hi, d, &scratches[w])
			})
		}
		for lo := 0; lo < len(l.lines); lo += drcLineChunk {
			lo, hi := lo, min(lo+drcLineChunk, len(l.lines))
			units = append(units, func(w int) []Violation {
				return l.wireRuleUnit(lo, hi, d.Rules)
			})
		}
	}
	if len(d.Obstacles) > 0 {
		for lo := 0; lo < len(routes); lo += drcLineChunk {
			lo, hi := lo, min(lo+drcLineChunk, len(routes))
			units = append(units, func(w int) []Violation {
				return obstacleUnit(routes, lo, hi, d)
			})
		}
	}
	var out []Violation
	for _, r := range pool.RunWith(units, workers) {
		out = append(out, r...)
	}
	span.End()

	sortViolations(out)
	if rec.Enabled() {
		// Counters are emitted in kind order: accumulating into a map and
		// ranging over it would emit the JSONL trace lines in randomized
		// map order (caught by the mapiter analyzer).
		var byKind [ObstacleViolation + 1]int64
		for _, v := range out {
			byKind[v.Kind]++
		}
		for k, n := range byKind {
			if n > 0 {
				rec.Count("drc.violations."+ViolationKind(k).String(), n)
			}
		}
		var cells, segs int64
		for _, l := range prepped {
			cells += int64(l.grid.nx * l.grid.ny)
			segs += int64(len(l.segs))
		}
		rec.Count("drc.grid.cells", cells)
		rec.Count("drc.grid.segments", segs)
	}
	return out
}
