// Package detail implements the detailed-routing stage of the paper
// (§III-B): access points are distributed evenly on their tile edges,
// adjusted by the multi-net dynamic-programming scheme with partial-net
// separation and a max-heap (Theorem 1), and the final geometry inside each
// tile is constructed by the fit-routing tangent construction (Theorems 2–3).
package detail

import (
	"fmt"

	"rdlroute/internal/geom"
	"rdlroute/internal/global"
	"rdlroute/internal/obs"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/viaplan"
)

// ElemKind classifies one element of a net's routing chain.
type ElemKind uint8

// Chain element kinds.
const (
	// ElemPin is a fixed chip I/O pad terminal.
	ElemPin ElemKind = iota
	// ElemVia is a fixed via location where the net changes wire layers.
	ElemVia
	// ElemAP is an access point on a tile edge (the γ of the paper),
	// movable along its edge within its allocated range.
	ElemAP
)

// Elem is one element of a routing chain.
type Elem struct {
	Kind ElemKind
	// Node is the graph node this element came from.
	Node rgraph.NodeID
	// AP indexes into Detailer.APs for ElemAP elements, -1 otherwise.
	AP int
	// Layer is the wire layer the element sits on (for vias: the layer of
	// its via node).
	Layer int
}

// Chain is a net's ordered route skeleton from pin to pin.
type Chain struct {
	Net   int
	Elems []Elem
}

// AccessPoint is one movable crossing of a net over a tile edge.
type AccessPoint struct {
	Node   rgraph.NodeID // edge node
	Net    int
	T      float64 // position parameter along the edge (Edge.A→Edge.B)
	Lo, Hi float64 // current movable range (parameters)
	// Fixed marks points whose range is too small to matter or that have
	// already been placed by the DP pass.
	Fixed bool
	// Chain locates the element: chain index == net, elem index below.
	ElemIdx int
}

// Pos returns the access point's position in the plane.
func (d *Detailer) Pos(apIdx int) geom.Point {
	ap := &d.APs[apIdx]
	endA, endB := d.G.EdgeEnds(ap.Node)
	return endA.Lerp(endB, ap.T)
}

// ElemPos returns the current position of a chain element.
func (d *Detailer) ElemPos(e Elem) geom.Point {
	if e.Kind == ElemAP {
		return d.Pos(e.AP)
	}
	return d.G.Node(e.Node).Pos
}

// Detailer holds detailed-routing state.
type Detailer struct {
	G   *rgraph.Graph
	R   *global.Router
	Opt Options

	Chains []*Chain // indexed by net; nil for unrouted nets
	APs    []AccessPoint
	// apAt maps (edge node, net) to the AP index.
	apAt map[apKey]int
	// guides are the committed global guides, indexed by net.
	guides []*global.Guide
	// processed counts partial nets handled by the DP pass.
	processed int

	rec obs.Recorder
	// Counters flushed to rec at the end of Run.
	dpHeapOps   int64 // partial-net heap pushes + pops
	fitTangents int64 // successful tangent constructions (Fig. 12); atomic, tiles route concurrently

	// Tile-routing state prepared once per run (see buildTileJobs): jobs in
	// canonical order and the flat (net, chainIdx) → polyline hop index.
	tileJobs []*tileJob
	hopOff   []int32
	hopPl    []geom.Polyline
	failBuf  []*tilePassage

	// DP scratches reused across runDP calls (the adjustment pass is
	// serial): the run's AP indices, flat candidate parameters with
	// per-stage offsets, flat cost/backpointer/choice tables, the touched
	// edge-node set, and the per-edge refresh buffers.
	dpRun     []int
	dpCandOff []int32
	dpCandT   []float64
	dpCost    []float64
	dpBack    []int32
	dpChoice  []int32
	dpTouched []rgraph.NodeID
	factorBuf []float64
	sepBuf    []float64
}

// growSlice returns buf resized to n elements, reallocating only when the
// capacity is insufficient. Contents are unspecified.
//
//rdl:noalloc
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		//rdl:allow noalloc amortized growth: reallocates only while a buffer is still growing toward its steady-state size, never on warm calls
		return make([]T, n)
	}
	return buf[:n]
}

type apKey struct {
	node rgraph.NodeID
	net  int
}

// buildChains converts guides into chains and creates evenly distributed
// access points on every edge node (the paper's initial distribution).
func (d *Detailer) buildChains(guides []*global.Guide) error {
	d.apAt = make(map[apKey]int)
	// First create APs per edge node in sequence order so neighbours are
	// adjacent in d.APs.
	for id := range d.G.Nodes {
		node := d.G.Node(rgraph.NodeID(id))
		if node.Kind != rgraph.EdgeNode {
			continue
		}
		seq := d.R.Sequences(rgraph.NodeID(id))
		m := len(seq)
		for i, net := range seq {
			t := float64(i+1) / float64(m+1)
			d.apAt[apKey{rgraph.NodeID(id), net}] = len(d.APs)
			d.APs = append(d.APs, AccessPoint{
				Node: rgraph.NodeID(id), Net: net, T: t, ElemIdx: -1,
			})
		}
	}

	d.Chains = make([]*Chain, len(d.G.Design.Nets))
	for ni, g := range guides {
		if g == nil {
			continue
		}
		ch := &Chain{Net: ni}
		prevVia := rgraph.Invalid
		for _, nid := range g.Nodes {
			node := d.G.Node(nid)
			switch {
			case node.Kind == rgraph.EdgeNode:
				apIdx, ok := d.apAt[apKey{nid, ni}]
				if !ok {
					return fmt.Errorf("detail: net %d not in sequence of node %d", ni, nid)
				}
				d.APs[apIdx].ElemIdx = len(ch.Elems)
				ch.Elems = append(ch.Elems, Elem{Kind: ElemAP, Node: nid, AP: apIdx, Layer: int(node.Layer)})
			case node.VertKind == viaplan.KindPin:
				ch.Elems = append(ch.Elems, Elem{Kind: ElemPin, Node: nid, AP: -1, Layer: int(node.Layer)})
			case node.VertKind == viaplan.KindVia:
				// The two via nodes of one cross-via hop share a position;
				// keep both (they carry their layers) but skip nothing.
				ch.Elems = append(ch.Elems, Elem{Kind: ElemVia, Node: nid, AP: -1, Layer: int(node.Layer)})
				prevVia = nid
			default:
				return fmt.Errorf("detail: net %d passes through %v vertex", ni, node.VertKind)
			}
		}
		_ = prevVia
		d.Chains[ni] = ch
	}
	return nil
}

// StraightLength returns the current chain length of a net: the polyline
// through all element positions (cross-via hops contribute zero because the
// two via nodes share a position).
func (d *Detailer) StraightLength(net int) float64 {
	ch := d.Chains[net]
	if ch == nil {
		return 0
	}
	var sum float64
	for i := 1; i < len(ch.Elems); i++ {
		sum += d.ElemPos(ch.Elems[i-1]).Dist(d.ElemPos(ch.Elems[i]))
	}
	return sum
}
