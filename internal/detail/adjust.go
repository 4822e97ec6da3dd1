package detail

import (
	"context"
	"math"
	"slices"

	"rdlroute/internal/obs"
	"rdlroute/internal/pq"
	"rdlroute/internal/rgraph"
)

// Access point adjustment (§III-B1).
//
// Every access point receives a movable range along its tile edge, bounded
// by its sequence neighbours (plus the wire pitch) and by the edge's end
// vias. Maximal runs of consecutive movable access points within one net
// form partial nets; a max-heap processes the longest partial net first,
// running a dynamic program over a fixed number of candidate positions per
// access point to minimize the run's polyline length. After a run is
// placed, only the ranges of access points adjacent on the affected edges
// need updating (Fig. 10), giving the O(|Γ| lg |Γ|) bound of Theorem 1.

// partialNet is a maximal run of movable access points of one net.
type partialNet struct {
	net       int
	startElem int // first elem index of the run within the chain
	length    int // number of access points in the run
}

// AdjustAccessPoints runs the full adjustment pass and returns the number of
// partial nets processed. Cancelling ctx stops the pass between partial
// nets; the remaining access points keep their current positions.
func (d *Detailer) AdjustAccessPoints(ctx context.Context) int {
	d.refreshAllRanges()

	// Build partial nets: maximal runs of movable APs per chain. The typed
	// heap stores the runs by value — no boxing, no per-run pointer — keyed
	// by the negated length, so the longest run pops first (exact for ints).
	var h pq.Heap[partialNet]
	for net, ch := range d.Chains {
		if ch == nil {
			continue
		}
		i := 0
		for i < len(ch.Elems) {
			if ch.Elems[i].Kind != ElemAP || d.APs[ch.Elems[i].AP].Fixed {
				i++
				continue
			}
			j := i
			for j < len(ch.Elems) && ch.Elems[j].Kind == ElemAP && !d.APs[ch.Elems[j].AP].Fixed {
				j++
			}
			h.Push(-float64(j-i), partialNet{net: net, startElem: i, length: j - i})
			d.dpHeapOps++
			i = j
		}
	}

	processed := 0
	for h.Len() > 0 {
		if obs.Stopped(ctx) {
			break
		}
		pn := h.Pop()
		d.dpHeapOps++
		if d.runDP(pn) {
			processed++
		}
	}
	return processed
}

// refreshAllRanges recomputes every access point's movable range from the
// current neighbour positions and marks too-tight points fixed.
func (d *Detailer) refreshAllRanges() {
	for id := range d.G.Nodes {
		node := d.G.Node(rgraph.NodeID(id))
		if node.Kind != rgraph.EdgeNode {
			continue
		}
		d.refreshEdgeRanges(rgraph.NodeID(id))
	}
}

// refreshEdgeRanges recomputes the ranges of all access points on one edge
// node from current positions.
func (d *Detailer) refreshEdgeRanges(id rgraph.NodeID) {
	seq := d.R.Sequences(id)
	if len(seq) == 0 {
		return
	}
	endA, endB := d.G.EdgeEnds(id)
	edgeLen := endA.Dist(endB)
	if edgeLen <= 0 {
		return
	}
	rules := d.G.Design.Rules
	// Two adjacent access points d apart along the edge give wires crossing
	// at incidence angle θ a perpendicular separation of d·sin(θ), so the
	// spacing each pair needs is clearance / sin(θ) — the continuous form of
	// the paper's perpendicular 3-segment pattern. The factor is clamped so
	// nearly edge-parallel wires do not blow the requirement up unboundedly.
	factor := growSlice(d.factorBuf, len(seq))
	d.factorBuf = factor
	for i, net := range seq {
		factor[i] = d.incidenceFactor(id, net)
	}
	overConstrained := false
	for i, net := range seq {
		apIdx := d.apAt[apKey{id, net}]
		ap := &d.APs[apIdx]
		endMargin := rules.ViaWireClearance(d.G.Design.WidthOf(net)) / edgeLen
		lo, hi := endMargin, 1-endMargin
		if i > 0 {
			prev := &d.APs[d.apAt[apKey{id, seq[i-1]}]]
			sep := d.G.Design.Clearance(net, seq[i-1]) * math.Max(factor[i], factor[i-1]) / edgeLen
			if v := prev.T + sep; v > lo {
				lo = v
			}
		}
		if i+1 < len(seq) {
			next := &d.APs[d.apAt[apKey{id, seq[i+1]}]]
			sep := d.G.Design.Clearance(net, seq[i+1]) * math.Max(factor[i], factor[i+1]) / edgeLen
			if v := next.T - sep; v < hi {
				hi = v
			}
		}
		if lo > hi {
			overConstrained = true
			break
		}
		ap.Lo, ap.Hi = lo, hi
		ap.T = clampf(ap.T, lo, hi)
		if (hi-lo)*edgeLen < d.Opt.MinMovable {
			ap.Fixed = true
		}
	}
	if overConstrained {
		d.packEdge(id, seq, edgeLen)
	}
}

// packEdge is the over-constraint fallback: when the incidence-factored
// ranges do not fit on the edge, the access points are packed from the edge
// start at exact pairwise clearance (factor 1) — the densest legal layout —
// and frozen. When even that does not fit, all separations are scaled down
// proportionally (a best-effort layout whose residual violations the DRC
// reports).
func (d *Detailer) packEdge(id rgraph.NodeID, seq []int, edgeLen float64) {
	rules := d.G.Design.Rules
	m := len(seq)
	sep := growSlice(d.sepBuf, m+1) // sep[0]=start margin, sep[i]=gap before AP i, sep[m]=end margin
	d.sepBuf = sep
	sep[0] = rules.ViaWireClearance(d.G.Design.WidthOf(seq[0])) / edgeLen
	for i := 1; i < m; i++ {
		sep[i] = d.G.Design.Clearance(seq[i-1], seq[i]) / edgeLen
	}
	sep[m] = rules.ViaWireClearance(d.G.Design.WidthOf(seq[m-1])) / edgeLen
	total := 0.0
	for _, s := range sep {
		total += s
	}
	scale := 1.0
	if total > 1 {
		scale = 1 / total
	}
	// Distribute the slack (if any) evenly into the gaps.
	slack := (1 - total*scale) / float64(m+1)
	t := 0.0
	for i := 0; i < m; i++ {
		t += sep[i]*scale + slack
		ap := &d.APs[d.apAt[apKey{id, seq[i]}]]
		ap.T = clamp01(t)
		ap.Lo, ap.Hi = ap.T, ap.T
		ap.Fixed = true
	}
}

// incidenceFactor returns 1/sin(θ) clamped to [1, 2.5], where θ is the
// shallower of the two angles the net's wire makes with the edge at this
// access point, estimated from the current chain neighbour positions.
//
//rdl:noalloc
func (d *Detailer) incidenceFactor(id rgraph.NodeID, net int) float64 {
	const maxFactor = 2.5
	apIdx, ok := d.apAt[apKey{id, net}]
	if !ok {
		return maxFactor
	}
	ap := &d.APs[apIdx]
	ch := d.Chains[net]
	if ch == nil || ap.ElemIdx <= 0 || ap.ElemIdx+1 >= len(ch.Elems) {
		return maxFactor
	}
	endA, endB := d.G.EdgeEnds(id)
	edgeDir := endB.Sub(endA).Unit()
	here := d.Pos(apIdx)
	worst := 1.0
	for _, nb := range [2]int{ap.ElemIdx - 1, ap.ElemIdx + 1} {
		dir := d.ElemPos(ch.Elems[nb]).Sub(here)
		n := dir.Norm()
		if n == 0 {
			continue
		}
		sin := math.Abs(edgeDir.Cross(dir)) / n
		f := maxFactor
		if sin > 1/maxFactor {
			f = 1 / sin
		}
		if f > worst {
			worst = f
		}
	}
	return worst
}

// apPosAt returns the planar position of an access point's edge node at
// parameter t.
//
//rdl:noalloc
func (d *Detailer) apPosAt(apIdx int, t float64) (x, y float64) {
	endA, endB := d.G.EdgeEnds(d.APs[apIdx].Node)
	p := endA.Lerp(endB, t)
	return p.X, p.Y
}

// runDP optimizes one partial net with the dynamic program and updates the
// neighbours' ranges afterwards. It reports whether any point moved.
//
// All working storage lives in flat scratch arrays on the Detailer
// (candidate parameters with per-stage offsets, cost/backpointer/choice
// tables, the touched-edge set), reused across partial nets: the adjustment
// pass is serial, so after the first few runs the DP executes without
// growing the heap.
//
//rdl:noalloc
func (d *Detailer) runDP(pn partialNet) bool {
	ch := d.Chains[pn.net]
	if ch == nil {
		return false
	}
	C := d.Opt.Candidates

	// Collect the run.
	run := d.dpRun[:0]
	for e := pn.startElem; e < pn.startElem+pn.length && e < len(ch.Elems); e++ {
		el := ch.Elems[e]
		if el.Kind != ElemAP {
			return false // chain corrupted; defensive
		}
		run = append(run, el.AP)
	}
	d.dpRun = run
	if len(run) == 0 {
		return false
	}

	// Fixed anchors before and after the run.
	startPos := d.anchorPos(ch, pn.startElem-1)
	endPos := d.anchorPos(ch, pn.startElem+len(run))

	// Candidate positions per AP: an even grid over the movable range plus
	// the current position, so the DP can never pick a placement worse than
	// what it already has. Stage i's parameters are ct[off[i]:off[i+1]].
	off := d.dpCandOff[:0]
	ct := d.dpCandT[:0]
	off = append(off, 0)
	for _, apIdx := range run {
		ap := &d.APs[apIdx]
		if ap.Fixed || ap.Hi <= ap.Lo {
			ct = append(ct, ap.T)
			off = append(off, int32(len(ct)))
			continue
		}
		lo := len(ct)
		for c := 0; c < C; c++ {
			ct = append(ct, ap.Lo+(ap.Hi-ap.Lo)*float64(c)/float64(C-1))
		}
		onGrid := false
		for _, v := range ct[lo:] {
			if v == ap.T {
				onGrid = true
			}
		}
		if !onGrid {
			ct = append(ct, ap.T)
		}
		off = append(off, int32(len(ct)))
	}
	d.dpCandOff = off
	d.dpCandT = ct

	// DP over stages; cost and backpointers are flat, addressed by the same
	// global candidate indices as ct.
	n := len(run)
	cost := growSlice(d.dpCost, len(ct))
	back := growSlice(d.dpBack, len(ct))
	d.dpCost, d.dpBack = cost, back
	for c := off[0]; c < off[1]; c++ {
		x, y := d.apPosAt(run[0], ct[c])
		cost[c] = hypot(x-startPos.X, y-startPos.Y)
	}
	for i := 1; i < n; i++ {
		for c := off[i]; c < off[i+1]; c++ {
			bestC, bestV := int32(-1), 0.0
			x, y := d.apPosAt(run[i], ct[c])
			for p := off[i-1]; p < off[i]; p++ {
				px, py := d.apPosAt(run[i-1], ct[p])
				v := cost[p] + hypot(x-px, y-py)
				if bestC == -1 || v < bestV {
					bestC, bestV = p, v
				}
			}
			cost[c] = bestV
			back[c] = bestC
		}
	}
	bestC, bestV := int32(-1), 0.0
	for c := off[n-1]; c < off[n]; c++ {
		x, y := d.apPosAt(run[n-1], ct[c])
		v := cost[c] + hypot(x-endPos.X, y-endPos.Y)
		if bestC == -1 || v < bestV {
			bestC, bestV = c, v
		}
	}

	// Apply and fix the run.
	moved := false
	choice := growSlice(d.dpChoice, n)
	d.dpChoice = choice
	choice[n-1] = bestC
	for i := n - 1; i > 0; i-- {
		choice[i-1] = back[choice[i]]
	}
	touched := d.dpTouched[:0]
	for i, apIdx := range run {
		ap := &d.APs[apIdx]
		newT := ct[choice[i]]
		if newT != ap.T {
			moved = true
		}
		ap.T = newT
		ap.Fixed = true
		touched = append(touched, ap.Node)
	}
	d.dpTouched = touched
	// Update the ranges of access points on the touched edges (the paper's
	// single-traversal incremental update of Fig. 10). Sorted with adjacent
	// duplicates skipped so the refresh order — which feeds back through
	// neighbour positions into incidence factors — is deterministic.
	slices.Sort(touched)
	for i, id := range touched {
		if i > 0 && id == touched[i-1] {
			continue
		}
		d.refreshEdgeRanges(id)
	}
	return moved
}

// anchorPos returns the position of the chain element at index idx, or the
// nearest existing element when idx is out of range (a partial net at a
// chain end anchors on the terminal pin).
func (d *Detailer) anchorPos(ch *Chain, idx int) (p struct{ X, Y float64 }) {
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ch.Elems) {
		idx = len(ch.Elems) - 1
	}
	pt := d.ElemPos(ch.Elems[idx])
	p.X, p.Y = pt.X, pt.Y
	return p
}

func clamp01(v float64) float64 { return clampf(v, 0, 1) }

func clampf(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func hypot(dx, dy float64) float64 {
	// math.Hypot guards against overflow we cannot hit at µm magnitudes;
	// plain sqrt is faster in the DP inner loop.
	return math.Sqrt(dx*dx + dy*dy)
}
