package global

import (
	"context"
	"testing"

	"rdlroute/internal/rgraph"
)

// findInteriorEdge returns an interior (two-tile) edge node of layer 0 with
// positive capacity, plus the opposite vertices of its two tiles.
func findInteriorEdge(t *testing.T, r *Router) (rgraph.NodeID, [2]int, [2]int) {
	t.Helper()
	lg := &r.G.Layers[0]
	for ei, e := range lg.Mesh.Edges() {
		tris := lg.Mesh.EdgeTris(ei)
		if tris[1] == -1 {
			continue
		}
		en := lg.EdgeNode[ei]
		if r.G.Node(en).Cap < 2 {
			continue
		}
		vi, okI := lg.Mesh.OppositeVertex(tris[0], e)
		vj, okJ := lg.Mesh.OppositeVertex(tris[1], e)
		if !okI || !okJ {
			continue
		}
		return en, [2]int{tris[0], tris[1]}, [2]int{vi, vj}
	}
	t.Fatal("no interior edge found")
	return rgraph.Invalid, [2]int{}, [2]int{}
}

func TestDiagonalViolationDetection(t *testing.T) {
	// White-box: inflate the usage counters around one interior edge until
	// Eq. 3 trips, and verify the detector sees exactly that situation. The
	// synthetic dense suite never drives usage close enough to the diagonal
	// bound for the violation to occur organically (EXPERIMENTS.md notes
	// this), so the mechanism is pinned down here.
	r := buildRouter(t, "dense1", rgraph.Options{}, Options{})
	if got := r.DiagonalViolations(); got != 0 {
		t.Fatalf("fresh router reports %d violations", got)
	}

	en, tris, verts := findInteriorEdge(t, r)
	lg := &r.G.Layers[0]
	d := lg.Mesh.Points[verts[0]].Dist(lg.Mesh.Points[verts[1]])
	pitch := r.G.Design.Rules.Pitch()
	// Eq. 3 is violated when (U1 + U2 + Υ + 1) · pitch ≥ d. Load the edge
	// node itself with just enough usage.
	need := int32(d/pitch) + 1
	r.nodeUse[en] = need
	if got := r.DiagonalViolations(); got == 0 {
		t.Fatalf("no violation with usage %d against diagonal %.1f (pitch %.1f)", need, d, pitch)
	}
	// One unit below the bound must be clean again.
	r.nodeUse[en] = 0
	if got := r.DiagonalViolations(); got != 0 {
		t.Fatalf("violations linger after reset: %d", got)
	}

	// Corner usage counts too: load the cross-tile links wrapping the two
	// opposite vertices instead of the edge itself.
	tile0 := r.G.TileOf(0, tris[0])
	tile1 := r.G.TileOf(0, tris[1])
	ord0 := tile0.VertexOrdinal(verts[0])
	ord1 := tile1.VertexOrdinal(verts[1])
	if ord0 == -1 || ord1 == -1 {
		t.Fatal("opposite vertices not found in tiles")
	}
	half := need/2 + 1
	r.linkUse[tile0.CrossLinks[ord0]] = half
	r.linkUse[tile1.CrossLinks[ord1]] = half
	if got := r.DiagonalViolations(); got == 0 {
		t.Fatal("corner usage alone should also trip Eq. 3")
	}
	r.linkUse[tile0.CrossLinks[ord0]] = 0
	r.linkUse[tile1.CrossLinks[ord1]] = 0
}

func TestRefineDiagonalReducesCapacityAndReroutes(t *testing.T) {
	// Route dense1 fully, then force an Eq. 3 violation on an edge node a
	// real guide passes through and let the refinement loop fix it by
	// reducing the capacity and rerouting the victims.
	r := buildRouter(t, "dense1", rgraph.Options{}, Options{})
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Routability() != 1 {
		t.Fatal("precondition: full routability")
	}
	// Find an edge node used by at least one guide and shrink its diagonal
	// bound artificially by inflating the corner link usages of its tiles.
	var victim rgraph.NodeID = rgraph.Invalid
	lg := &r.G.Layers[0]
	var tris [2]int
	var verts [2]int
	for ei, e := range lg.Mesh.Edges() {
		ts := lg.Mesh.EdgeTris(ei)
		if ts[1] == -1 {
			continue
		}
		en := lg.EdgeNode[ei]
		if r.nodeUse[en] == 0 {
			continue
		}
		vi, okI := lg.Mesh.OppositeVertex(ts[0], e)
		vj, okJ := lg.Mesh.OppositeVertex(ts[1], e)
		if !okI || !okJ {
			continue
		}
		victim = en
		tris = [2]int{ts[0], ts[1]}
		verts = [2]int{vi, vj}
		break
	}
	if victim == rgraph.Invalid {
		t.Skip("no used interior edge on layer 0")
	}
	d := lg.Mesh.Points[verts[0]].Dist(lg.Mesh.Points[verts[1]])
	pitch := r.G.Design.Rules.Pitch()
	tile0 := r.G.TileOf(0, tris[0])
	ord0 := tile0.VertexOrdinal(verts[0])
	inflate := int32(d/pitch) + 1
	r.linkUse[tile0.CrossLinks[ord0]] += inflate

	if r.DiagonalViolations() == 0 {
		t.Fatal("setup failed to create a violation")
	}
	reductions := r.refineDiagonal(context.Background())
	if reductions == 0 {
		t.Fatal("refinement did nothing")
	}
	if r.nodeCap[victim] >= r.G.Node(victim).Cap {
		t.Error("victim edge capacity not reduced")
	}
	// The rerouted state must stay structurally consistent (note: the
	// artificial link inflation is external to the guides, so only check
	// sequence/usage agreement for real guides).
	r.linkUse[tile0.CrossLinks[ord0]] -= inflate
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
