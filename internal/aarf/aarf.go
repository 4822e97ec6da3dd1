// Package aarf is the AARF* baseline of Table III as a router.Options
// preset: the multi-layer extension of AARF (Yang et al., TCAD'18), the
// state-of-the-art any-angle router for flow-based biochips, re-implemented
// the way the paper describes its weaknesses:
//
//   - Nets are routed sequentially in netlist order with no congestion-aware
//     ordering, no failure-driven order adjustment, and no rip-up: a net that
//     cannot be routed stays unrouted.
//   - Routing resources are consumed greedily with no reservation for
//     subsequent routes: each committed net is treated as a hard constraint
//     corridor in the (conceptually rebuilt) triangulation, which blocks
//     three times the paper's capacity model per tile edge.
//   - After every routed net the triangulation of every wire layer is
//     rebuilt with the routed net as a constraint. The rebuild dominates
//     AARF's runtime; this implementation pays that exact cost by
//     re-triangulating every layer after each commit.
//   - No diagonal utility refinement and no Eq. 2 corner capacity model
//     (the naive corner estimate is used).
//
// The per-net DP path optimization of AARF is retained through the shared
// detailed-routing stage.
//
//	out, err := router.Route(ctx, d, aarf.Options(router.Options{TimeBudget: time.Minute}))
package aarf

import (
	"sync"

	"rdlroute/internal/dt"
	"rdlroute/internal/geom"
	"rdlroute/internal/global"
	"rdlroute/internal/router"
)

// Options returns base with the AARF* baseline's settings: the naive corner
// capacity, netlist order, one round without rip-up or refinement, three
// capacity units per net on every edge node it crosses, and the per-net
// mesh rebuild as Global.AfterEachNet. Setting that hook to nil keeps the
// routing result and drops the rebuild's cost.
func Options(base router.Options) router.Options {
	base.Graph.NaiveCornerCapacity = true
	base.Global.DisableRUDYOrder = true
	base.Global.DisableDiagonalRefinement = true
	base.Global.MaxOrderRounds = 1
	base.Global.EdgeUsePerNet = 3
	base.Global.AfterEachNet = rebuild()
	return base
}

// rebuild returns the per-net mesh-rebuild hook. It keeps the growing
// per-layer point sets: every committed route's vertices join the
// constraint set of its layers, so the per-net re-triangulation cost grows
// as routing proceeds — the quadratic blow-up that makes the original AARF
// time out on large designs. A set holds each point once: routes share
// via and edge-node positions, and an exact copy adds no vertex to a
// rebuilt mesh, while dt.Triangulate would pay a point location for it.
// The sets start over when the hook sees a router it has not seen last,
// and a mutex guards them, so one Options value may serve concurrent runs.
func rebuild() func(r *global.Router, net int) {
	var (
		mu       sync.Mutex
		cur      *global.Router
		layerPts [][]geom.Point
		seen     []map[geom.Point]bool
	)
	add := func(layer int, p geom.Point) {
		if !seen[layer][p] {
			seen[layer][p] = true
			layerPts[layer] = append(layerPts[layer], p)
		}
	}
	return func(r *global.Router, net int) {
		mu.Lock()
		defer mu.Unlock()
		if r != cur {
			cur = r
			layerPts = make([][]geom.Point, len(r.G.Plan.Layers))
			seen = make([]map[geom.Point]bool, len(r.G.Plan.Layers))
			for li, lp := range r.G.Plan.Layers {
				seen[li] = make(map[geom.Point]bool)
				for _, v := range lp.Verts {
					add(li, v.Pos)
				}
			}
		}
		// A committed route enters the constrained triangulation as its
		// bend vertices plus the Steiner points where it crosses existing
		// mesh edges — roughly one vertex every few wire pitches along the
		// route. Sample accordingly so the rebuild cost grows the way the
		// original algorithm's does.
		step := 4 * r.G.Design.Rules.Pitch()
		if guide := r.Guide(net); guide != nil {
			for i := 0; i+1 < len(guide.Nodes); i++ {
				a := r.G.Node(guide.Nodes[i])
				b := r.G.Node(guide.Nodes[i+1])
				if a.Layer != b.Layer {
					continue
				}
				seg := geom.Seg(a.Pos, b.Pos)
				n := int(seg.Len()/step) + 1
				for k := 0; k <= n; k++ {
					add(int(a.Layer), seg.At(float64(k)/float64(n)))
				}
			}
		}
		for li := range layerPts {
			_, _ = dt.Triangulate(layerPts[li])
		}
	}
}
