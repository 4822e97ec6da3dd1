package rgraph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/viaplan"
)

// premiseDesigns returns dense1–5 and the six designs of the benchmark's
// random workload, drawn as cmd/rdlbench's randomPool(1, 6) draws them.
func premiseDesigns(t *testing.T) []*design.Design {
	t.Helper()
	var ds []*design.Design
	for _, name := range design.DenseNames() {
		d, err := design.GenerateDense(name)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6; i++ {
		d, err := design.GenerateRandom(design.RandomSpec{
			Seed:           rng.Int63(),
			Chips:          2 + rng.Intn(5),
			NetsPerChannel: 8 + rng.Intn(17),
			WireLayers:     2 + rng.Intn(2),
		})
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	return ds
}

// TestSearchHeuristicPremises checks the graph properties that let global
// A* end a search at the first pop of its target. A pin node has no
// cross-via link, so a search reaches its target in one state only. Every
// access-via and cross-tile link is exactly as long as the distance between
// its ends, and the two ends of a cross-via share a position at a cost of
// at least zero, so the straight-line heuristic is consistent. If a graph
// change breaks one of these, this test fails before any route moves.
//
// It also checks the tile ordinals every adjacency carries for the A*
// expansion: for a tile link, FromOrd and ToOrd equal the tile scan of the
// list's node and of To (the corner of a via node, the edge of an edge
// node); for a cross-via link both are -1.
func TestSearchHeuristicPremises(t *testing.T) {
	for i, d := range premiseDesigns(t) {
		name := fmt.Sprintf("%s#%d", d.Name, i)
		plan, err := viaplan.Build(d, viaplan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := Build(d, plan, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for pad := range d.IOPads {
			id, ok := g.PinNode[pad]
			if !ok {
				continue
			}
			for _, adj := range g.Neighbors(id) {
				if g.Link(int(adj.Link)).Kind == CrossVia {
					t.Fatalf("%s: pin node %d of pad %d has cross-via link %d", name, id, pad, adj.Link)
				}
			}
		}
		for id := range g.Nodes {
			for _, adj := range g.Neighbors(NodeID(id)) {
				l := g.Link(int(adj.Link))
				from, to := int8(-1), int8(-1)
				if l.Kind != CrossVia {
					tile := g.TileOf(int(l.Layer), int(l.Tile))
					from, to = scanOrdinal(g, tile, NodeID(id)), scanOrdinal(g, tile, adj.To)
					if from < 0 || from > 2 || to < 0 || to > 2 {
						t.Fatalf("%s: %v link %d: ends %d and %d scan to ordinals %d and %d in tile %d",
							name, l.Kind, adj.Link, id, adj.To, from, to, l.Tile)
					}
				}
				if adj.FromOrd != from || adj.ToOrd != to {
					t.Fatalf("%s: %v link %d from node %d: ordinals %d→%d, tile scan %d→%d",
						name, l.Kind, adj.Link, id, adj.FromOrd, adj.ToOrd, from, to)
				}
			}
		}
		same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		for id, l := range g.Links {
			a, b := g.Node(l.A).Pos, g.Node(l.B).Pos
			switch l.Kind {
			case AccessVia, CrossTile:
				if dist := a.Dist(b); !same(l.Len, dist) {
					t.Fatalf("%s: %v link %d has Len %v, its ends are %v apart", name, l.Kind, id, l.Len, dist)
				}
			case CrossVia:
				if !same(a.X, b.X) || !same(a.Y, b.Y) || l.Len < 0 {
					t.Fatalf("%s: cross-via link %d joins %v and %v at Len %v", name, id, a, b, l.Len)
				}
			}
		}
	}
}

// scanOrdinal finds node id in the tile the way the global router's commit
// does: a via node by its mesh vertex among the corners, an edge node among
// the edges. It returns -1 when the node is not in the tile.
func scanOrdinal(g *Graph, tile *Tile, id NodeID) int8 {
	n := g.Node(id)
	for i := range 3 {
		if (n.Kind == ViaNode && tile.Verts[i] == n.Vert) || (n.Kind == EdgeNode && tile.EdgeNodes[i] == id) {
			return int8(i)
		}
	}
	return -1
}
