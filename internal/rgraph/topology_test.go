package rgraph

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// topologyHash is an FNV-64a hash over the integer structure of a graph:
// every layer's triangles (vertices and neighbours), every node's kind,
// layer, capacity, mesh vertex and mesh edge, every link's kind, endpoints,
// capacity, tile and corner, and every node's adjacency in order. Float
// fields are left out, so the hash pins numbering and capacities exactly
// without depending on how a position is computed.
func topologyHash(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	put(len(g.Layers))
	for _, lg := range g.Layers {
		put(len(lg.Mesh.Tris))
		for _, t := range lg.Mesh.Tris {
			for i := 0; i < 3; i++ {
				put(t.V[i])
				put(t.N[i])
			}
		}
	}
	put(len(g.Nodes))
	for _, n := range g.Nodes {
		put(int(n.Kind))
		put(int(n.Layer))
		put(int(n.Cap))
		put(int(n.Vert))
		put(n.Edge.A)
		put(n.Edge.B)
	}
	put(len(g.Links))
	for _, l := range g.Links {
		put(int(l.Kind))
		put(int(l.A))
		put(int(l.B))
		put(int(l.Cap))
		put(int(l.Tile))
		put(int(l.Corner))
	}
	for id := range g.Nodes {
		adj := g.Neighbors(NodeID(id))
		put(len(adj))
		for _, a := range adj {
			put(int(a.Link))
			put(int(a.To))
		}
	}
	return h.Sum64()
}

// TestGraphTopologyPinned pins the exact routing graph of every dense case:
// triangle numbering, node and link IDs, capacities and neighbour order. A
// change to the triangulation or the graph build that renumbers anything
// moves a hash, and with it the A* tie-breaking and so the routes.
func TestGraphTopologyPinned(t *testing.T) {
	want := []struct {
		name string
		hash uint64
	}{
		{"dense1", 0xe1aec389dc33f280},
		{"dense2", 0x5c70e0f3807fecca},
		{"dense3", 0x9b9732fe46b5a1fe},
		{"dense4", 0x3445bc7389e7656f},
		{"dense5", 0xfe7a769fe2099670},
	}
	for _, w := range want {
		if testing.Short() && (w.name == "dense4" || w.name == "dense5") {
			continue
		}
		g := buildGraph(t, w.name, Options{})
		if got := topologyHash(g); got != w.hash {
			t.Errorf("%s: topology hash %#016x, want %#016x", w.name, got, w.hash)
		}
	}
}
