package detail

import (
	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// Post-assembly layer reassignment. The routing graph prices every layer
// change with a fixed via cost, but the search still commits to detours
// through adjacent layers that the final geometry does not need: a segment
// sandwiched between two segments of the same layer can often be folded
// onto that layer, deleting both vias. Vias are a yield concern in RDL
// processes (random via failure), so each such fold is attempted greedily
// and accepted only when the legality index confirms the moved geometry is
// clean on the target layer.
//
// The pass runs serially over routes in net-ID order, so its output is
// independent of every Parallelism setting by construction — the routes it
// reads are already byte-identical across pool sizes, and it adds no
// concurrency of its own.

// ReassignStats summarizes one layer-reassignment pass.
type ReassignStats struct {
	// ViasBefore and ViasAfter are the total via counts over all routes
	// before and after the pass.
	ViasBefore, ViasAfter int
	// SegmentsMerged counts accepted folds (each removes two vias and
	// replaces three segments with one).
	SegmentsMerged int
	// NetsChanged counts nets with at least one accepted fold.
	NetsChanged int
}

// reassigner validates candidate folds with the legality index's strict
// query against the current wires and vias of every route. mergeBuf is the
// scratch the candidate fold geometry is built in (copied out only on an
// accepted fold); ruleBuf collects the wire-rule findings a fold compares.
type reassigner struct {
	*legalIndex
	mergeBuf geom.Polyline
	ruleBuf  []Violation
}

// moveOK reports whether every segment of pl may be placed on layer. The
// geometry is new on the layer, so the strict rule applies: no
// pre-existing shortfall is allowed to stay.
//
//rdl:noalloc
func (r *reassigner) moveOK(pl geom.Polyline, layer, net int) bool {
	for i := 1; i < len(pl); i++ {
		if !r.legal(geom.Seg(pl[i-1], pl[i]), layer, net, false, geom.Segment{}, geom.Segment{}) {
			return false
		}
	}
	return true
}

// mergeInto concatenates the three segment polylines of a fold into the
// scratch buffer, dropping the duplicated junction points. The returned
// polyline aliases the scratch and is only valid until the next call.
//
//rdl:noalloc
func (r *reassigner) mergeInto(a, b, c geom.Polyline) geom.Polyline {
	m := r.mergeBuf[:0]
	m = append(m, a...)
	m = append(m, b[1:]...)
	m = append(m, c[1:]...)
	r.mergeBuf = m
	return m.SimplifyInPlace()
}

// foldOne attempts the first acceptable fold of a route and reports whether
// one was applied. Candidates are scanned left to right: an interior
// segment whose two neighbours share a layer can fold onto that layer,
// deleting the vias on both sides.
func (r *reassigner) foldOne(routes []*Route, rt *Route) bool {
	for i := 1; i+1 < len(rt.Segs); i++ {
		l := rt.Segs[i-1].Layer
		if rt.Segs[i+1].Layer != l || rt.Segs[i].Layer == l {
			continue
		}
		if !r.d.LayerAllowed(rt.Net, l) {
			continue
		}
		if !r.moveOK(rt.Segs[i].Pl, l, rt.Net) {
			continue
		}
		merged := r.mergeInto(rt.Segs[i-1].Pl, rt.Segs[i].Pl, rt.Segs[i+1].Pl)
		if len(merged) < 2 {
			continue
		}
		// Folds must not add angle or turn-distance findings: the junction
		// vertices they interiorize may carry turns the per-segment checks
		// never saw.
		rules := r.d.Rules
		r.ruleBuf = appendWireRules(r.ruleBuf[:0], rt.Segs[i-1].Pl, l, rt.Net, rules)
		r.ruleBuf = appendWireRules(r.ruleBuf, rt.Segs[i].Pl, l, rt.Net, rules)
		r.ruleBuf = appendWireRules(r.ruleBuf, rt.Segs[i+1].Pl, l, rt.Net, rules)
		before := len(r.ruleBuf)
		r.ruleBuf = appendWireRules(r.ruleBuf[:0], merged, l, rt.Net, rules)
		if len(r.ruleBuf) > before {
			continue
		}
		// Accepted: copy the merged geometry out of the scratch.
		out := make(geom.Polyline, len(merged))
		copy(out, merged)
		oldLayer := rt.Segs[i].Layer
		rt.Segs[i-1] = RouteSeg{Layer: l, Pl: out}
		rt.Segs = append(rt.Segs[:i], rt.Segs[i+2:]...)
		// Vias[i-1] and Vias[i] joined the folded segment to its
		// neighbours; both disappear with it.
		rt.Vias = append(rt.Vias[:i-1], rt.Vias[i+1:]...)
		r.refreshSegs(routes, l)
		r.refreshSegs(routes, oldLayer)
		r.refreshVias(routes)
		return true
	}
	return false
}

// ReassignRoutes folds avoidable layer detours in place and returns the
// pass statistics. Routes are processed serially in net-ID order and each
// net is folded to a fixpoint, so the result does not depend on any worker
// pool: given byte-identical input routes, the output is byte-identical.
func ReassignRoutes(routes []*Route, d *design.Design) ReassignStats {
	var st ReassignStats
	for _, rt := range routes {
		if rt != nil {
			st.ViasBefore += len(rt.Vias)
		}
	}
	r := &reassigner{legalIndex: newLegalIndex(routes, d)}
	for _, rt := range routes {
		if rt == nil {
			continue
		}
		changed := false
		for r.foldOne(routes, rt) {
			changed = true
			st.SegmentsMerged++
		}
		if changed {
			st.NetsChanged++
		}
	}
	for _, rt := range routes {
		if rt != nil {
			st.ViasAfter += len(rt.Vias)
		}
	}
	return st
}
