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
			for _, adj := range g.Adj[id] {
				if g.Link(adj.Link).Kind == CrossVia {
					t.Fatalf("%s: pin node %d of pad %d has cross-via link %d", name, id, pad, adj.Link)
				}
			}
		}
		same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		for _, l := range g.Links {
			a, b := g.Node(l.A).Pos, g.Node(l.B).Pos
			switch l.Kind {
			case AccessVia, CrossTile:
				if dist := a.Dist(b); !same(l.Len, dist) {
					t.Fatalf("%s: %v link %d has Len %v, its ends are %v apart", name, l.Kind, l.ID, l.Len, dist)
				}
			case CrossVia:
				if !same(a.X, b.X) || !same(a.Y, b.Y) || l.Len < 0 {
					t.Fatalf("%s: cross-via link %d joins %v and %v at Len %v", name, l.ID, a, b, l.Len)
				}
			}
		}
	}
}
