package detail

import (
	"context"
	"math"
	"testing"

	"rdlroute/internal/geom"
	"rdlroute/internal/global"
	"rdlroute/internal/rgraph"
)

// newDetailer routes a design globally and builds a Detailer without running
// the adjustment, so tests can drive it step by step.
func newDetailer(t *testing.T, name string) (*global.Router, *Detailer) {
	t.Helper()
	r, gres, _ := pipeline(t, name, Options{SkipAdjust: true})
	d := &Detailer{G: r.G, R: r, guides: gres.Guides}
	if err := d.buildChains(gres.Guides); err != nil {
		t.Fatal(err)
	}
	return r, d
}

func TestAdjustmentNeverLengthensAnyChain(t *testing.T) {
	// The DP candidate set includes every access point's current position,
	// so no partial-net optimization can make its chain longer. The only
	// sanctioned growth is the over-constraint packing fallback, which
	// trades a little length for legal spacing; it stays small.
	_, d := newDetailer(t, "dense2")
	before := make([]float64, len(d.Chains))
	var beforeTotal float64
	for ni := range d.Chains {
		if d.Chains[ni] != nil {
			before[ni] = d.StraightLength(ni)
			beforeTotal += before[ni]
		}
	}
	if n := d.AdjustAccessPoints(context.Background()); n == 0 {
		t.Fatal("no partial nets processed")
	}
	var afterTotal float64
	for ni := range d.Chains {
		if d.Chains[ni] == nil {
			continue
		}
		after := d.StraightLength(ni)
		afterTotal += after
		if after > before[ni]*1.05+1e-6 {
			t.Errorf("net %d chain grew beyond packing slack: %.3f -> %.3f", ni, before[ni], after)
		}
	}
	if afterTotal >= beforeTotal {
		t.Errorf("adjustment did not shorten overall: %.1f -> %.1f", beforeTotal, afterTotal)
	}
}

func TestAdjustmentRespectsRanges(t *testing.T) {
	_, d := newDetailer(t, "dense1")
	d.AdjustAccessPoints(context.Background())
	for i := range d.APs {
		ap := &d.APs[i]
		if ap.T < 0-1e-9 || ap.T > 1+1e-9 {
			t.Fatalf("AP %d parameter %v outside [0,1]", i, ap.T)
		}
		if ap.Lo <= ap.Hi && (ap.T < ap.Lo-1e-9 || ap.T > ap.Hi+1e-9) {
			t.Fatalf("AP %d at %v outside its range [%v, %v]", i, ap.T, ap.Lo, ap.Hi)
		}
	}
}

func TestAdjustmentKeepsSequenceOrder(t *testing.T) {
	// After adjustment, access points on every edge must still appear in
	// sequence order along the edge (crossing-freedom depends on it).
	r, d := newDetailer(t, "dense2")
	d.AdjustAccessPoints(context.Background())
	for id := range d.G.Nodes {
		node := d.G.Node(rgraph.NodeID(id))
		if node.Kind != rgraph.EdgeNode {
			continue
		}
		seq := r.Sequences(rgraph.NodeID(id))
		prev := -1.0
		for _, net := range seq {
			apIdx, ok := d.apAt[apKey{rgraph.NodeID(id), net}]
			if !ok {
				t.Fatalf("edge %d missing AP for net %d", id, net)
			}
			tt := d.APs[apIdx].T
			if tt <= prev {
				t.Fatalf("edge %d: sequence order broken (%v after %v)", id, tt, prev)
			}
			prev = tt
		}
	}
}

func TestDPBeatsGreedyOnChains(t *testing.T) {
	// The DP must reach at least the quality of a simple greedy pass that
	// projects each access point onto the line between its chain
	// neighbours one at a time (a strictly weaker optimizer).
	_, dpD := newDetailer(t, "dense1")
	dpD.AdjustAccessPoints(context.Background())
	var dpTotal float64
	for ni := range dpD.Chains {
		if dpD.Chains[ni] != nil {
			dpTotal += dpD.StraightLength(ni)
		}
	}

	_, grD := newDetailer(t, "dense1")
	grD.refreshAllRanges()
	for pass := 0; pass < 3; pass++ {
		for i := range grD.APs {
			ap := &grD.APs[i]
			if ap.Fixed || ap.Hi <= ap.Lo {
				continue
			}
			ch := grD.Chains[ap.Net]
			if ch == nil || ap.ElemIdx <= 0 || ap.ElemIdx+1 >= len(ch.Elems) {
				continue
			}
			endA, endB := grD.G.EdgeEnds(ap.Node)
			prev := grD.ElemPos(ch.Elems[ap.ElemIdx-1])
			next := grD.ElemPos(ch.Elems[ap.ElemIdx+1])
			// Best parameter on the edge for the local detour: sample.
			bestT, bestC := ap.T, math.Inf(1)
			for k := 0; k <= 32; k++ {
				tt := ap.Lo + (ap.Hi-ap.Lo)*float64(k)/32
				p := endA.Lerp(endB, tt)
				c := prev.Dist(p) + p.Dist(next)
				if c < bestC {
					bestC, bestT = c, tt
				}
			}
			ap.T = bestT
		}
	}
	var grTotal float64
	for ni := range grD.Chains {
		if grD.Chains[ni] != nil {
			grTotal += grD.StraightLength(ni)
		}
	}
	if dpTotal > grTotal*1.02 {
		t.Errorf("DP total %.1f worse than greedy %.1f", dpTotal, grTotal)
	}
	t.Logf("DP %.1f vs greedy %.1f (%.2f%% better)", dpTotal, grTotal,
		100*(grTotal-dpTotal)/grTotal)
}

func TestIncidenceFactorBounds(t *testing.T) {
	_, d := newDetailer(t, "dense1")
	for id := range d.G.Nodes {
		node := d.G.Node(rgraph.NodeID(id))
		if node.Kind != rgraph.EdgeNode {
			continue
		}
		for _, net := range d.R.Sequences(rgraph.NodeID(id)) {
			f := d.incidenceFactor(rgraph.NodeID(id), net)
			if f < 1-1e-9 || f > 2.5+1e-9 {
				t.Fatalf("incidence factor %v out of [1, 2.5]", f)
			}
		}
	}
	// Perpendicular crossing has factor 1: synthesize via geometry check.
	if s := math.Abs(geom.Pt(0, 1).Cross(geom.Pt(1, 0))); s != 1 {
		t.Fatal("sanity: cross of perpendicular units")
	}
}
