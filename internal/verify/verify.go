// Package verify is the independent result verifier: it re-checks a routed
// result against the §II-B rules and structural requirements without
// trusting any router state. Production routers ship such verifiers so a
// routing bug cannot silently sign off its own work.
//
// Checks:
//   - connectivity: every routed net's geometry runs continuously from its
//     first pin to its second, changing layers only at its recorded vias;
//   - wire-wire spacing, minimum angle, turn-to-turn distance, keep-outs
//     (delegated to the DRC in internal/detail);
//   - via-to-via spacing between different nets (w_v + w_s centre to
//     centre);
//   - via-to-wire spacing between different nets (w_v/2 + w_s + w/2);
//   - vias land strictly inside the package outline.
//
// Check fans the work out over a worker pool — per-net connectivity units,
// via-pair stripes, and the parallel DRC — and merges the findings into a
// canonical order, so any pool size produces byte-identical reports. Verify
// is the serial single-worker wrapper.
package verify

import (
	"fmt"
	"math"
	"sort"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/geom"
	"rdlroute/internal/obs"
	"rdlroute/internal/pool"
)

// Problem is one verification finding.
type Problem struct {
	Kind ProblemKind
	Net  int
	// Other is the second net for spacing findings, -1 otherwise.
	Other int
	Where geom.Point
	Msg   string
}

// ProblemKind classifies verification findings.
type ProblemKind uint8

// Verification finding kinds.
const (
	// BrokenConnectivity: a route does not continuously connect its pins.
	BrokenConnectivity ProblemKind = iota
	// ViaViaSpacing: two different nets' vias closer than w_v + w_s.
	ViaViaSpacing
	// ViaWireSpacing: a net's wire closer than w_v/2 + w_s + w/2 to
	// another net's via.
	ViaWireSpacing
	// ViaPlacement: a via outside the package outline.
	ViaPlacement
	// RuleViolation wraps a DRC violation from internal/detail.
	RuleViolation
)

// Kinds lists every finding kind, in report order.
var Kinds = []ProblemKind{
	BrokenConnectivity, ViaViaSpacing, ViaWireSpacing, ViaPlacement, RuleViolation,
}

// String returns a short name for the finding kind.
func (k ProblemKind) String() string {
	switch k {
	case BrokenConnectivity:
		return "connectivity"
	case ViaViaSpacing:
		return "via-via-spacing"
	case ViaWireSpacing:
		return "via-wire-spacing"
	case ViaPlacement:
		return "via-placement"
	default:
		return "rule"
	}
}

// Report is the outcome of verification.
type Report struct {
	Problems []Problem
	// CheckedNets counts the routed nets examined.
	CheckedNets int
}

// OK reports whether verification found nothing.
func (r *Report) OK() bool { return len(r.Problems) == 0 }

// Count returns the number of findings of one kind.
func (r *Report) Count(kind ProblemKind) int {
	n := 0
	for _, p := range r.Problems {
		if p.Kind == kind {
			n++
		}
	}
	return n
}

// Counts returns the findings-by-kind totals keyed by kind name. Kinds with
// no findings are omitted.
func (r *Report) Counts() map[string]int {
	out := make(map[string]int)
	for _, p := range r.Problems {
		out[p.Kind.String()]++
	}
	return out
}

// Finding is the JSON wire shape of one problem, served by rdlserved job
// results and documented in doc/VERIFY.md.
type Finding struct {
	Kind string `json:"kind"`
	Net  int    `json:"net"`
	// Other is the second net of a spacing finding, -1 otherwise.
	Other int     `json:"other"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Msg   string  `json:"msg"`
}

// Findings returns the report's problems in wire form, in report order.
func (r *Report) Findings() []Finding {
	out := make([]Finding, len(r.Problems))
	for i, p := range r.Problems {
		out[i] = Finding{
			Kind: p.Kind.String(), Net: p.Net, Other: p.Other,
			X: p.Where.X, Y: p.Where.Y, Msg: p.Msg,
		}
	}
	return out
}

// Options tunes Check.
type Options struct {
	// Workers is the worker-pool size. Zero or negative selects GOMAXPROCS
	// capped at 8; 1 runs the units serially (the reference path the
	// differential tests compare against).
	Workers int
	// Rec receives the verifier's stage span and findings-by-kind counters.
	// Nil selects the no-op recorder.
	Rec obs.Recorder
	// DRC supplies precomputed wire-rule violations (from the pipeline's
	// own DRC pass) to wrap instead of re-running the checker. Only
	// consulted when HaveDRC is set — a nil slice with HaveDRC means "known
	// clean".
	DRC     []detail.Violation
	HaveDRC bool
}

func (o Options) workers() int { return pool.Default(o.Workers) }

// Verify re-checks the routed result against the design on a single worker.
func Verify(d *design.Design, routes []*detail.Route) *Report {
	return Check(d, routes, Options{Workers: 1})
}

// verifyChunk is the number of routes or vias per work unit; fixed so the
// unit list does not depend on the pool size.
const verifyChunk = 64

// Check re-checks the routed result against the design, fanning the
// independent checks out over a worker pool. The report is byte-identical
// for every pool size: findings are merged into a canonical sorted order.
func Check(d *design.Design, routes []*detail.Route, opt Options) *Report {
	rec := obs.Or(opt.Rec)
	workers := opt.workers()
	span := obs.StartSpan(rec, "verify")
	defer span.End()

	rep := &Report{}
	for _, rt := range routes {
		if rt != nil {
			rep.CheckedNets++
		}
	}

	// Via index, in route order (deterministic).
	var vias []viaRef
	for _, rt := range routes {
		if rt == nil {
			continue
		}
		for _, v := range rt.Vias {
			vias = append(vias, viaRef{net: rt.Net, layer: v.Layer, pos: v.Pos})
		}
	}
	// Per-layer wire views shared read-only by the via-wire units.
	var views [][]wireView
	if len(vias) > 0 {
		views = make([][]wireView, d.WireLayers)
		for layer := range views {
			views[layer] = wireViews(d, routes, layer)
		}
	}

	var units []func(int) []Problem
	for lo := 0; lo < len(routes); lo += verifyChunk {
		lo, hi := lo, minInt(lo+verifyChunk, len(routes))
		units = append(units, func(int) []Problem {
			return connectivityUnit(d, routes, lo, hi)
		})
	}
	for lo := 0; lo < len(vias); lo += verifyChunk {
		lo, hi := lo, minInt(lo+verifyChunk, len(vias))
		units = append(units, func(int) []Problem {
			return viaViaUnit(d, vias, lo, hi)
		})
		units = append(units, func(int) []Problem {
			return viaWireUnit(d, routes, vias, lo, hi, views)
		})
	}
	rep.Problems = runUnits(units, workers)

	// Wire rules via the group- and width-aware DRC, reusing the caller's
	// violations when supplied.
	drc := opt.DRC
	if !opt.HaveDRC {
		drc = detail.CheckDRCParallel(routes, d, detail.DRCOptions{
			Workers: workers, Rec: opt.Rec,
		})
	}
	for _, violation := range drc {
		rep.Problems = append(rep.Problems, Problem{
			Kind: RuleViolation, Net: violation.NetA, Other: violation.NetB,
			Where: violation.Where, Msg: violation.String(),
		})
	}

	sortProblems(rep.Problems)
	if rec.Enabled() {
		// Counters are emitted in canonical kind order: ranging over the
		// Counts() map would emit the JSONL trace lines in randomized map
		// order (caught by the mapiter analyzer).
		for _, kind := range Kinds {
			if n := rep.Count(kind); n > 0 {
				rec.Count("verify.findings."+kind.String(), int64(n))
			}
		}
	}
	return rep
}

// connectivityUnit checks route continuity, via stitching, layer validity
// and via placement for routes[lo:hi].
func connectivityUnit(d *design.Design, routes []*detail.Route, lo, hi int) []Problem {
	var out []Problem
	add := func(p Problem) { out = append(out, p) }
	for ni := lo; ni < hi; ni++ {
		rt := routes[ni]
		if rt == nil {
			continue
		}
		if rt.Net != ni {
			add(Problem{Kind: BrokenConnectivity, Net: ni, Other: -1,
				Msg: fmt.Sprintf("route slot %d carries net %d", ni, rt.Net)})
			continue
		}
		if ni >= len(d.Nets) {
			add(Problem{Kind: BrokenConnectivity, Net: ni, Other: -1, Msg: "net not in design"})
			continue
		}
		a, b := d.PinPos(d.Nets[ni])
		if len(rt.Segs) == 0 || len(rt.Segs) != len(rt.Vias)+1 {
			add(Problem{Kind: BrokenConnectivity, Net: ni, Other: -1,
				Msg: fmt.Sprintf("%d segments with %d vias", len(rt.Segs), len(rt.Vias))})
			continue
		}
		first := rt.Segs[0].Pl
		lastPl := rt.Segs[len(rt.Segs)-1].Pl
		if len(first) < 2 || len(lastPl) < 2 {
			add(Problem{Kind: BrokenConnectivity, Net: ni, Other: -1, Msg: "degenerate segment"})
			continue
		}
		if !first[0].ApproxEq(a) {
			add(Problem{Kind: BrokenConnectivity, Net: ni, Other: -1, Where: first[0],
				Msg: fmt.Sprintf("starts at %v, pin at %v", first[0], a)})
		}
		if !lastPl[len(lastPl)-1].ApproxEq(b) {
			add(Problem{Kind: BrokenConnectivity, Net: ni, Other: -1, Where: lastPl[len(lastPl)-1],
				Msg: fmt.Sprintf("ends at %v, pin at %v", lastPl[len(lastPl)-1], b)})
		}
		// Each via joins the surrounding segments at its own position.
		for vi, v := range rt.Vias {
			prev := rt.Segs[vi].Pl
			next := rt.Segs[vi+1].Pl
			if !prev[len(prev)-1].ApproxEq(v.Pos) || !next[0].ApproxEq(v.Pos) {
				add(Problem{Kind: BrokenConnectivity, Net: ni, Other: -1, Where: v.Pos,
					Msg: fmt.Sprintf("via %d not at segment junction", vi)})
			}
			// Adjacent segments of a via must sit on adjacent layers.
			if dl := rt.Segs[vi].Layer - rt.Segs[vi+1].Layer; dl != 1 && dl != -1 {
				add(Problem{Kind: BrokenConnectivity, Net: ni, Other: -1, Where: v.Pos,
					Msg: fmt.Sprintf("via %d jumps %d layers", vi, dl)})
			}
			if !d.Outline.Contains(v.Pos) {
				add(Problem{Kind: ViaPlacement, Net: ni, Other: -1, Where: v.Pos,
					Msg: "via outside outline"})
			}
		}
		// Segments themselves are continuous polylines on valid layers.
		for si, seg := range rt.Segs {
			if seg.Layer < 0 || seg.Layer >= d.WireLayers {
				add(Problem{Kind: BrokenConnectivity, Net: ni, Other: -1,
					Msg: fmt.Sprintf("segment %d on invalid layer %d", si, seg.Layer)})
			}
		}
	}
	return out
}

// viaRef is one via flattened out of its route for the pairwise checks.
type viaRef struct {
	net   int
	layer int // via layer index: joins wire layers layer and layer+1
	pos   geom.Point
}

// viaViaUnit checks vias[lo:hi] against every later via. A via spans two
// wire layers; vias of different nets conflict when they sit on the same
// via layer closer than w_v + w_s.
func viaViaUnit(d *design.Design, vias []viaRef, lo, hi int) []Problem {
	var out []Problem
	viaClear := d.Rules.ViaViaClearance()
	for i := lo; i < hi; i++ {
		for j := i + 1; j < len(vias); j++ {
			if d.SameGroup(vias[i].net, vias[j].net) {
				continue
			}
			if vias[i].layer != vias[j].layer {
				continue // different via layers never touch
			}
			if dd := vias[i].pos.Dist(vias[j].pos); dd < viaClear-geom.Eps {
				out = append(out, Problem{
					Kind: ViaViaSpacing, Net: vias[i].net, Other: vias[j].net,
					Where: vias[i].pos,
					Msg:   fmt.Sprintf("vias %.2f µm apart, need %.2f", dd, viaClear),
				})
			}
		}
	}
	return out
}

// wireView is one single-layer polyline of a net with its bounding box and
// its via-wire clearance limit.
type wireView struct {
	net    int
	pl     geom.Polyline
	lo, hi geom.Point
	limit  float64
}

// wireViews returns the views of every wire on a layer, in net order.
func wireViews(d *design.Design, routes []*detail.Route, layer int) []wireView {
	lines := detail.SegmentsOnLayer(routes, layer)
	out := make([]wireView, len(lines))
	for i, rl := range lines {
		w := wireView{net: rl.Net, pl: rl.Pl, limit: d.Rules.ViaWireClearance(d.WidthOf(rl.Net)),
			lo: geom.Pt(math.Inf(1), math.Inf(1)), hi: geom.Pt(math.Inf(-1), math.Inf(-1))}
		for _, p := range rl.Pl {
			w.lo.X, w.lo.Y = math.Min(w.lo.X, p.X), math.Min(w.lo.Y, p.Y)
			w.hi.X, w.hi.Y = math.Max(w.hi.X, p.X), math.Max(w.hi.Y, p.Y)
		}
		out[i] = w
	}
	return out
}

// viaWireUnit checks vias[lo:hi] against every other net's wires on the two
// layers each via touches. views holds the design's layers; a via layer
// outside the design (a malformed route) gets its views built on the spot.
//
// Every pair is visited, but the distance is computed only when the via
// lies within limit of the wire's bounding box in x and in y. Any point of
// the wire, the closest one included, is at least that far away in one
// axis, and a distance is at least its larger axis difference, so a
// skipped pair is at least limit apart and cannot be a finding (which
// needs dd < limit − geom.Eps). The closest point the distance computation
// interpolates can stray outside the box only by rounding, a few ulps of
// the coordinates, far below the geom.Eps tolerance.
func viaWireUnit(d *design.Design, routes []*detail.Route, vias []viaRef, lo, hi int,
	views [][]wireView) []Problem {
	var out []Problem
	for _, v := range vias[lo:hi] {
		for _, layer := range []int{v.layer, v.layer + 1} {
			var lines []wireView
			if layer >= 0 && layer < len(views) {
				lines = views[layer]
			} else {
				lines = wireViews(d, routes, layer)
			}
			for _, w := range lines {
				if d.SameGroup(w.net, v.net) {
					continue
				}
				if v.pos.X < w.lo.X-w.limit || v.pos.X > w.hi.X+w.limit ||
					v.pos.Y < w.lo.Y-w.limit || v.pos.Y > w.hi.Y+w.limit {
					continue
				}
				dd, _ := w.pl.DistToPoint(v.pos)
				if dd < w.limit-geom.Eps {
					out = append(out, Problem{
						Kind: ViaWireSpacing, Net: v.net, Other: w.net, Where: v.pos,
						Msg: fmt.Sprintf("wire %.2f µm from via, need %.2f", dd, w.limit),
					})
				}
			}
		}
	}
	return out
}

// runUnits executes the units on the shared deterministic pool and
// concatenates their outputs in unit order.
func runUnits(units []func(int) []Problem, workers int) []Problem {
	var out []Problem
	for _, r := range pool.Run(units, workers) {
		out = append(out, r...)
	}
	return out
}

// sortProblems puts findings into the report's canonical order: by kind,
// then nets, then position, then message — a total order over everything a
// problem carries, independent of unit boundaries and worker scheduling.
func sortProblems(ps []Problem) {
	sort.SliceStable(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		switch {
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.Net != b.Net:
			return a.Net < b.Net
		case a.Other != b.Other:
			return a.Other < b.Other
		case a.Where.X != b.Where.X:
			return a.Where.X < b.Where.X
		case a.Where.Y != b.Where.Y:
			return a.Where.Y < b.Where.Y
		default:
			return a.Msg < b.Msg
		}
	})
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
