package detail

import (
	"context"
	"fmt"

	"rdlroute/internal/geom"
	"rdlroute/internal/global"
	"rdlroute/internal/obs"
	"rdlroute/internal/pool"
	"rdlroute/internal/rgraph"
)

// Options tunes detailed routing.
type Options struct {
	// SkipAdjust disables the DP access-point adjustment (ablation): access
	// points stay at their even initial distribution.
	SkipAdjust bool `json:"skip_adjust"`
	// SkipReassign disables the post-assembly layer-reassignment pass
	// (ablation): avoidable layer detours keep their vias.
	SkipReassign bool `json:"skip_reassign"`
	// Octilinear replaces every polished segment by its octilinear
	// staircase (geom.Octilinearize) and reports the staircase wirelength:
	// the X-architecture geometry of the traditional-router baseline.
	Octilinear bool `json:"octilinear"`
	// Workers is the worker-pool size for tile routing and route assembly.
	// Zero or negative selects GOMAXPROCS capped at 8; 1 runs the units
	// serially (the reference path the differential tests compare against).
	// Tiles are independent work units merged in canonical key order, so
	// every pool size produces byte-identical geometry.
	Workers int `json:"-"`
	// Rec receives stage spans and counters. Nil selects the no-op
	// recorder.
	Rec obs.Recorder `json:"-"`
}

func (o Options) workers() int { return pool.Default(o.Workers) }

// RouteSeg is one single-layer piece of a net's final geometry.
type RouteSeg struct {
	Layer int
	Pl    geom.Polyline
}

// Route is the complete detailed route of one net.
type Route struct {
	Net  int
	Segs []RouteSeg
	// Vias are the via positions used by this net, paired with the via
	// layer each sits on. Vias[i] joins Segs[i] and Segs[i+1].
	Vias []ViaUse
}

// ViaUse records one via taken by a route.
type ViaUse struct {
	Pos geom.Point
	// Layer is the via layer index, matching viaplan.Via.Layer: via layer k
	// joins wire layers k and k+1 (k is the smaller — physically upper —
	// of the two wire layers under the 0-is-top convention). stats keys its
	// Vias map by this index, svg draws the via on wire layers k and k+1,
	// and the verifier applies via spacing rules per this index; the shared
	// definition is pinned by TestViaLayerSemanticsAgree.
	Layer int
}

// Wirelength returns the total wire length of the route (vias excluded,
// matching the paper's wirelength metric).
func (r *Route) Wirelength() float64 {
	var sum float64
	for _, s := range r.Segs {
		sum += s.Pl.Length()
	}
	return sum
}

// Result is the outcome of detailed routing.
type Result struct {
	// Routes holds one route per net ID; nil entries were not globally
	// routed.
	Routes []*Route
	// Wirelength is the total over all routed nets.
	Wirelength float64
	// FitFailures counts passages whose fit routing could not clear all
	// spacing violations within the iteration bound.
	FitFailures int
	// AdjustedPartialNets is the number of partial nets processed by the DP
	// pass.
	AdjustedPartialNets int
	// Reassign summarizes the layer-reassignment pass (zero when the pass
	// was skipped).
	Reassign ReassignStats
	// Stopped reports that the run's context was cancelled or expired
	// before detailed routing finished; the geometry of passages not
	// reached falls back to straight chain hops.
	Stopped bool
}

// Run executes detailed routing for the guides committed in the global
// router. Fit routing runs once. Cancelling ctx stops the run at the next
// phase boundary (after the DP adjustment, or between tiles); passages not
// reached fall back to straight chain hops so the returned geometry is
// complete but degraded, with Result.Stopped set.
func Run(ctx context.Context, r *global.Router, res *global.Result, opt Options) (*Result, error) {
	d := &Detailer{
		G:      r.G,
		R:      r,
		Opt:    opt,
		rec:    obs.Or(opt.Rec),
		guides: res.Guides,
	}
	span := obs.StartSpan(d.rec, "detail")
	defer span.End()
	if err := d.buildChains(res.Guides); err != nil {
		return nil, err
	}
	if !d.Opt.SkipAdjust && !obs.Stopped(ctx) {
		adj := obs.StartSpan(d.rec, "detail.adjust")
		d.processed = d.AdjustAccessPoints(ctx)
		adj.End()
	}

	fit := obs.StartSpan(d.rec, "detail.fit")
	d.buildTileJobs()
	failures := d.routeTiles(ctx)
	fit.End()

	out := &Result{
		Routes:              make([]*Route, len(d.Chains)),
		FitFailures:         len(failures),
		AdjustedPartialNets: d.processed,
		Stopped:             obs.Stopped(ctx),
	}
	// Assembly fans out over fixed net chunks; each unit writes its own
	// disjoint out.Routes slots, so the merged result is independent of the
	// pool size, and the first error in chunk order matches the error the
	// serial loop would have hit first.
	asm := obs.StartSpan(d.rec, "detail.assemble")
	const assembleChunk = 32
	var units []func(int) error
	for lo := 0; lo < len(d.Chains); lo += assembleChunk {
		lo, hi := lo, min(lo+assembleChunk, len(d.Chains))
		units = append(units, func(int) error {
			// One stitch buffer per chunk: assemble reuses it across the
			// chunk's nets and copies only the final simplified geometry out.
			var cur geom.Polyline
			for net := lo; net < hi; net++ {
				ch := d.Chains[net]
				if ch == nil {
					continue
				}
				route, err := d.assemble(net, ch, &cur)
				if err != nil {
					return err
				}
				out.Routes[net] = route
			}
			return nil
		})
	}
	errs := pool.Run(units, d.Opt.workers())
	asm.End()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if !d.Opt.SkipReassign {
		ra := obs.StartSpan(d.rec, "detail.reassign")
		out.Reassign = ReassignRoutes(out.Routes, r.G.Design)
		ra.End()
	}
	pol := obs.StartSpan(d.rec, "detail.polish")
	polish := PolishRoutes(out.Routes, r.G.Design)
	out.Wirelength = polish.Wirelength
	pol.End()
	if d.Opt.Octilinear {
		out.Wirelength = octilinearize(out.Routes)
	}
	if d.rec.Enabled() {
		d.rec.Count("detail.reassign.vias_removed",
			int64(out.Reassign.ViasBefore-out.Reassign.ViasAfter))
		d.rec.Count("detail.reassign.segments_merged", int64(out.Reassign.SegmentsMerged))
		d.rec.Count("detail.polish.polylines_changed", int64(polish.PolylinesChanged))
		d.rec.Count("detail.polish.layer_rebuilds", int64(polish.LayerRebuilds))
		d.rec.Count("detail.polish.pairs_merged", int64(polish.PairsMerged))
		d.rec.Count("detail.dp.heap_ops", d.dpHeapOps)
		d.rec.Count("detail.dp.partial_nets", int64(d.processed))
		d.rec.Count("detail.fit.tangent_constructions", d.fitTangents)
		d.rec.Count("detail.fit.failures", int64(len(failures)))
	}
	return out, nil
}

// octilinearize replaces every segment of the routes by its octilinear
// staircase and returns the staircase wirelength, summed over the routes
// and then their segments.
func octilinearize(routes []*Route) float64 {
	var wl float64
	for _, rt := range routes {
		if rt == nil {
			continue
		}
		for si := range rt.Segs {
			rt.Segs[si].Pl = geom.Octilinearize(rt.Segs[si].Pl)
			wl += rt.Segs[si].Pl.Length()
		}
	}
	return wl
}

// assemble stitches a net's per-hop polylines into per-layer segments. The
// scratch polyline carries the growing single-layer stitch between flushes
// and is reused across the caller's nets; only the final simplified
// geometry of each segment is copied into the route.
func (d *Detailer) assemble(net int, ch *Chain, scratch *geom.Polyline) (*Route, error) {
	route := &Route{Net: net}
	guide := d.guideOf(net)
	cur := (*scratch)[:0]
	curLayer := ch.Elems[0].Layer
	flush := func(cur geom.Polyline) geom.Polyline {
		if len(cur) >= 2 {
			cur = cur.SimplifyInPlace()
			seg := make(geom.Polyline, len(cur))
			copy(seg, cur)
			route.Segs = append(route.Segs, RouteSeg{Layer: curLayer, Pl: seg})
		}
		return cur[:0]
	}
	for i := 0; i+1 < len(ch.Elems); i++ {
		link := d.G.Link(guide.Links[i])
		if link.Kind == rgraph.CrossVia {
			cur = flush(cur)
			pos := d.ElemPos(ch.Elems[i])
			// The via layer index is the smaller of the two wire layers the
			// via joins (via layer k connects wire layers k and k+1).
			vl := ch.Elems[i].Layer
			if ch.Elems[i+1].Layer < vl {
				vl = ch.Elems[i+1].Layer
			}
			route.Vias = append(route.Vias, ViaUse{Pos: pos, Layer: vl})
			curLayer = ch.Elems[i+1].Layer
			continue
		}
		pl := d.hopAt(net, i)
		if len(pl) < 2 {
			// No tile geometry (the tile was skipped after cancellation);
			// fall back to the straight hop.
			p0, p1 := d.ElemPos(ch.Elems[i]), d.ElemPos(ch.Elems[i+1])
			if len(cur) == 0 {
				cur = append(cur, p0, p1)
				continue
			}
			if !cur[len(cur)-1].ApproxEq(p0) {
				return nil, fmt.Errorf("detail: net %d hop %d discontinuous", net, i)
			}
			cur = append(cur, p1)
			continue
		}
		if len(cur) == 0 {
			cur = append(cur, pl...)
		} else {
			if !cur[len(cur)-1].ApproxEq(pl[0]) {
				return nil, fmt.Errorf("detail: net %d hop %d discontinuous", net, i)
			}
			cur = append(cur, pl[1:]...)
		}
	}
	cur = flush(cur)
	*scratch = cur
	if len(route.Segs) == 0 {
		return nil, fmt.Errorf("detail: net %d produced no geometry", net)
	}
	return route, nil
}

// SegmentsOnLayer returns all (net, polyline) pairs of one layer, sorted by
// net ID. Used by DRC and rendering.
func SegmentsOnLayer(routes []*Route, layer int) []RouteOnLayer {
	var out []RouteOnLayer
	for _, rt := range routes {
		if rt == nil {
			continue
		}
		for _, s := range rt.Segs {
			if s.Layer == layer {
				out = append(out, RouteOnLayer{Net: rt.Net, Pl: s.Pl})
			}
		}
	}
	// Stable insertion sort; routes arrive in net order already, so this is
	// one linear verification pass with no reflect-swapper allocation.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Net < out[j-1].Net; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RouteOnLayer pairs a net with one of its single-layer polylines.
type RouteOnLayer struct {
	Net int
	Pl  geom.Polyline
}
