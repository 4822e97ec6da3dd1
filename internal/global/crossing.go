package global

import (
	"rdlroute/internal/rgraph"
)

// Topological crossing machinery.
//
// Each guide segment inside a tile is a chord between two points of the tile
// boundary. The boundary is the cyclic sequence
//
//	V0, E0, V1, E1, V2, E2
//
// where Ei is the tile edge joining Vi and V(i+1)%3. Two chords cross if and
// only if their endpoints interleave in this cyclic order. Committed guides
// occupy integer positions inside each edge's net-sequence list; a guide
// being searched occupies a *gap* between two committed positions, so its
// coordinates are always strictly between committed ones and ties cannot
// occur. This realizes the paper's net-sequence lists: maintaining the
// correct order of nets on the boundary of every tile guarantees a
// non-crossing guide topology (§III-A3a).

// boundaryEnd is one chord endpoint on a tile boundary.
type boundaryEnd struct {
	// vertex is the corner ordinal (0..2) for endpoints at tile corners, or
	// -1 for endpoints on a tile edge.
	vertex int
	// edge is the edge ordinal (0..2) for endpoints on a tile edge.
	edge int
	// item is the committed position in the edge's net sequence, in the
	// edge's own storage order (Edge.A→Edge.B); -1 when gap is used instead.
	item int
	// gap is the insertion gap (0..len(seq)) in storage order; -1 when item
	// is used.
	gap int
}

func vertexEnd(ordinal int) boundaryEnd {
	return boundaryEnd{vertex: ordinal, edge: -1, item: -1, gap: -1}
}

func itemEnd(edgeOrdinal, item int) boundaryEnd {
	return boundaryEnd{vertex: -1, edge: edgeOrdinal, item: item, gap: -1}
}

func gapEnd(edgeOrdinal, gap int) boundaryEnd {
	return boundaryEnd{vertex: -1, edge: edgeOrdinal, item: -1, gap: gap}
}

// coord maps a boundary endpoint to a scalar in the cyclic domain [0, 6):
// vertex i sits at 2i, and positions on edge i spread strictly inside
// (2i, 2i+2). Items map to (j+1)/(m+1) fractions and gaps to half-offsets
// between them, so a gap coordinate never equals an item coordinate.
func (r *Router) coord(tile *rgraph.Tile, e boundaryEnd) float64 {
	if e.vertex >= 0 {
		return float64(2 * e.vertex)
	}
	en := tile.EdgeNodes[e.edge]
	node := r.G.Node(en)
	m := len(r.seqs[en])
	// Storage order runs Edge.A→Edge.B, where Edge.A < Edge.B. The boundary
	// traversal runs Verts[e.edge] → Verts[(e.edge+1)%3]; flip when the
	// boundary start is not Edge.A.
	sameDir := int(tile.Verts[e.edge]) == node.Edge.A
	var frac float64
	if e.item >= 0 {
		if sameDir {
			frac = float64(e.item+1) / float64(m+1)
		} else {
			frac = float64(m-e.item) / float64(m+1)
		}
	} else {
		if sameDir {
			frac = (float64(e.gap) + 0.5) / float64(m+1)
		} else {
			frac = (float64(m-e.gap) + 0.5) / float64(m+1)
		}
	}
	return float64(2*e.edge) + 2*frac
}

// inOpenArc reports whether x lies strictly inside the cyclic arc from a to
// b traversed in increasing coordinate direction (domain [0, 6)).
func inOpenArc(x, a, b float64) bool {
	if a < b {
		return x > a && x < b
	}
	return x > a || x < b
}

// chordsCross reports whether chords (a1, a2) and (b1, b2) interleave.
// Chords sharing an endpoint (exactly equal coordinates, which only arise
// from consecutive hops of one guide meeting at a node) never properly
// cross.
func chordsCross(a1, a2, b1, b2 float64) bool {
	if a1 == b1 || a1 == b2 || a2 == b1 || a2 == b2 {
		return false
	}
	in1 := inOpenArc(b1, a1, a2)
	in2 := inOpenArc(b2, a1, a2)
	return in1 != in2
}

// passage is one committed guide chord through a tile.
type passage struct {
	net int
	// Ends in boundaryEnd form. Edge endpoints are stored WITHOUT a
	// position (item = -1): the net's current index in the edge sequence is
	// looked up at query time, because later insertions shift it.
	e1, e2 passageEnd
}

type passageEnd struct {
	vertex int // corner ordinal or -1
	edge   int // edge ordinal or -1
}

// resolve converts a stored passage endpoint to a boundaryEnd with the
// net's current sequence position filled in.
func (r *Router) resolve(tile *rgraph.Tile, pe passageEnd, net int) (boundaryEnd, bool) {
	if pe.vertex >= 0 {
		return vertexEnd(pe.vertex), true
	}
	en := tile.EdgeNodes[pe.edge]
	for j, n := range r.seqs[en] {
		if n == net {
			return itemEnd(pe.edge, j), true
		}
	}
	return boundaryEnd{}, false
}

// tileKey identifies a tile globally.
type tileKey struct{ layer, tri int }

// chordCoords is the resolved coordinate pair of one committed passage.
type chordCoords struct{ c1, c2 float64 }

// passageCoords returns the boundary coordinates of every committed passage
// of the tile that belongs to a net electrically different from the
// searched one. Resolving a passage walks its edge sequences, and a search
// asks for the same tile from many expansions and gaps, so the result is
// memoized in the scratch for the rest of the search (router state is
// frozen while it runs); the returned slice stays valid until the scratch's
// next search begins.
//
//rdl:noalloc
func (r *Router) passageCoords(sc *searchScratch, net int, tile *rgraph.Tile) []chordCoords {
	ti := r.tileIndex(int(tile.Layer), int(tile.Tri))
	if m := sc.memo[ti]; m.gen == sc.gen {
		return sc.chords[m.lo : m.lo+m.n]
	}
	lo := len(sc.chords)
	for _, p := range r.passages[ti] {
		if r.G.Design.SameGroup(p.net, net) {
			continue
		}
		c1, ok1 := r.resolve(tile, p.e1, p.net)
		c2, ok2 := r.resolve(tile, p.e2, p.net)
		if !ok1 || !ok2 {
			continue // stale passage; defensive, should not happen
		}
		sc.chords = append(sc.chords, chordCoords{r.coord(tile, c1), r.coord(tile, c2)})
	}
	sc.memo[ti] = tileMemo{gen: sc.gen, lo: uint32(lo), n: uint32(len(sc.chords) - lo)}
	return sc.chords[lo:]
}

// chordAllowedCoords reports whether the query chord (q1, q2) crosses any of
// the pre-resolved passages.
//
//rdl:noalloc
func chordAllowedCoords(q1, q2 float64, pcs []chordCoords) bool {
	for _, pc := range pcs {
		if chordsCross(q1, q2, pc.c1, pc.c2) {
			return false
		}
	}
	return true
}

// chordAllowed reports whether a query chord (from, to) of the given net
// through the tile crosses any committed passage of an electrically
// different net (same-group passages are the same net and may cross
// freely).
//
//rdl:noalloc
func (r *Router) chordAllowed(sc *searchScratch, net int, tile *rgraph.Tile, from, to boundaryEnd) bool {
	pcs := r.passageCoords(sc, net, tile)
	if len(pcs) == 0 {
		return true
	}
	return chordAllowedCoords(r.coord(tile, from), r.coord(tile, to), pcs)
}

// vertexOrdinal returns the ordinal (0..2) of the mesh vertex v within the
// tile, or -1.
func vertexOrdinal(tile *rgraph.Tile, v int) int {
	for i, tv := range tile.Verts {
		if int(tv) == v {
			return i
		}
	}
	return -1
}

// edgeOrdinal returns the ordinal (0..2) of the edge node within the tile,
// or -1.
func edgeOrdinal(tile *rgraph.Tile, en rgraph.NodeID) int {
	for i, te := range tile.EdgeNodes {
		if te == en {
			return i
		}
	}
	return -1
}
