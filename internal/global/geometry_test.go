package global

import (
	"context"
	"testing"

	"rdlroute/internal/geom"
	"rdlroute/internal/rgraph"
)

// TestGuideChordsGeometricallyDisjoint validates the topological
// net-sequence machinery against brute-force geometry: when every edge
// node's crossings are placed at their sequence positions, the straight
// chords of different nets through any tile must not properly intersect.
// This is the property the interleaving checks are supposed to guarantee.
func TestGuideChordsGeometricallyDisjoint(t *testing.T) {
	for _, name := range []string{"dense1", "dense2"} {
		r := buildRouter(t, name, rgraph.Options{}, Options{})
		res, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// Position of a net's crossing on an edge node, derived from its
		// sequence index exactly like the detailed router's initial
		// distribution.
		posOn := func(id rgraph.NodeID, net int) (geom.Point, bool) {
			seq := r.Sequences(id)
			for i, n := range seq {
				if n == net {
					endA, endB := r.G.EdgeEnds(id)
					tt := float64(i+1) / float64(len(seq)+1)
					return endA.Lerp(endB, tt), true
				}
			}
			return geom.Point{}, false
		}
		// Build per-tile chords.
		type chord struct {
			net int
			seg geom.Segment
		}
		tiles := make(map[tileKey][]chord)
		for ni, g := range res.Guides {
			if g == nil {
				continue
			}
			for i, l := range g.Links {
				link := r.G.Link(l)
				if link.Kind == rgraph.CrossVia {
					continue
				}
				var a, b geom.Point
				ok := true
				for j, id := range []rgraph.NodeID{g.Nodes[i], g.Nodes[i+1]} {
					n := r.G.Node(id)
					var p geom.Point
					if n.Kind == rgraph.ViaNode {
						p = n.Pos
					} else {
						var found bool
						p, found = posOn(id, ni)
						if !found {
							ok = false
						}
					}
					if j == 0 {
						a = p
					} else {
						b = p
					}
				}
				if !ok {
					t.Fatalf("net %d missing from a sequence", ni)
				}
				key := tileKey{int(link.Layer), int(link.Tile)}
				tiles[key] = append(tiles[key], chord{net: ni, seg: geom.Seg(a, b)})
			}
		}
		crossings := 0
		for key, cs := range tiles {
			for i := 0; i < len(cs); i++ {
				for j := i + 1; j < len(cs); j++ {
					if cs[i].net == cs[j].net {
						continue
					}
					if cs[i].seg.ProperlyIntersects(cs[j].seg) {
						crossings++
						if crossings <= 3 {
							t.Errorf("%s tile %v: nets %d and %d chords cross: %v x %v",
								name, key, cs[i].net, cs[j].net, cs[i].seg, cs[j].seg)
						}
					}
				}
			}
		}
		if crossings > 0 {
			t.Fatalf("%s: %d geometric chord crossings", name, crossings)
		}
	}
}
