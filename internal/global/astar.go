package global

import (
	"errors"
	"fmt"
	"math"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/pq"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/viaplan"
)

// ErrUnroutable is wrapped by route errors when the crossing-aware A* cannot
// reach the target within capacity and topology constraints.
var ErrUnroutable = errors.New("global: net unroutable")

// searchResult is an uncommitted guide: the node path, links, and the
// sequence insertion gap chosen at every edge node. The gaps slice aliases
// scratch storage and is only valid until the owning scratch's next route
// call; nodes and links are freshly allocated because commit keeps them in
// the Guide.
type searchResult struct {
	net   int
	nodes []rgraph.NodeID
	links []int
	gaps  []int
}

// stateKey identifies a crossing-aware search state. Edge-node states carry
// the insertion gap in the node's net-sequence list (the paper's "record the
// left and right guides next to the processing guide"); via-node states
// carry whether the via was reached through a cross-via link, which
// restricts how it may be left.
type stateKey struct {
	node      rgraph.NodeID
	gap       int16
	viaArrive bool
}

type searchState struct {
	key    stateKey
	g      float64
	parent int32 // arena index of predecessor, -1 for start
	link   int32 // link traversed to arrive, -1 for start
}

// searchScratch owns every buffer the crossing-aware A* needs, so repeated
// route calls — the rip-up rounds and diagonal-refinement reroutes are many
// thousands of searches on dense designs — allocate nothing beyond the
// result path itself.
//
// The best-cost scoreboard holds only the nodes the current search touches.
// A node's first push in a search appends its slots to the bestG slab, all
// +Inf, and stamps the node with the search's generation and its first
// slot: two slots for a via node, one per viaArrive flavour, and one per
// insertion gap for an edge node, len(seq)+1 for a sequence of length len.
// Router state is frozen while a search runs, so a node's gap count cannot
// change under its slots. begin truncates the slab and bumps the
// generation, which invalidates every stamp and the chord memo below at
// once.
//
// The frozen state also means the resolved passage coordinates of a tile
// cannot change within one search: the chord memo resolves each tile the
// search touches once, into the chords arena, and every later expansion
// and gap through that tile reuses the slice.
type searchScratch struct {
	stamps []nodeStamp // per node: generation and first slot in bestG
	bestG  []float64

	arena []searchState
	// open holds arena indices keyed by f.
	open pq.Heap[int32]

	// seen and seenGen implement reconstruct's node-revisit check without a
	// per-call map.
	seen    []uint32
	seenGen uint32

	// gapsBuf backs searchResult.gaps; the caller consumes the gaps before
	// this scratch's next search overwrites them.
	gapsBuf []int

	// Per-search constants: the heuristic target and the capacity units the
	// searched net takes on an edge node.
	dstPos geom.Point
	units  int

	// Search generation, stamping the scoreboard nodes and the chord memo
	// (see type comment), which is indexed by the dense tile index.
	gen    uint32
	memo   []tileMemo
	chords []chordCoords

	// Per-search work counters and failure cause, reset by begin; the caller
	// folds them into the router totals. revisit reports that the search
	// ended because the path to its target visits a node twice.
	expansions int
	heapPushes int
	revisit    bool

	// read is the search's read set, one bit per node, cleared by begin and
	// marked by route and the expansion loops (see expandVia and
	// expandEdge). The round loop keeps it to decide cross-round reuse
	// (reuse.go).
	read []uint64
}

// tileMemo locates one tile's resolved chords in the scratch chords arena;
// it is valid while gen matches the scratch generation.
type tileMemo struct {
	gen   uint32
	lo, n uint32
}

// nodeStamp places one node's scoreboard slots in the bestG slab; it is
// valid while gen matches the scratch generation.
type nodeStamp struct {
	gen  uint32
	base int32
}

// newSearchScratch sizes the per-node and per-tile arrays for a graph with
// nTiles tiles over all layers. The scoreboard slab starts empty and grows
// to the largest search's footprint.
func newSearchScratch(g *rgraph.Graph, nTiles int) *searchScratch {
	return &searchScratch{
		stamps: make([]nodeStamp, len(g.Nodes)),
		seen:   make([]uint32, len(g.Nodes)),
		memo:   make([]tileMemo, nTiles),
		read:   make([]uint64, (len(g.Nodes)+63)/64),
	}
}

// slot maps the key of a state this search has pushed to its scoreboard
// slot.
//
//rdl:noalloc
func (s *searchScratch) slot(key stateKey) int32 {
	base := s.stamps[key.node].base
	if key.gap >= 0 {
		return base + int32(key.gap)
	}
	if key.viaArrive {
		return base + 1
	}
	return base
}

// begin readies the scratch for one search of a net taking units capacity
// units per edge node: empty scoreboard, fresh chord memo, empty arena,
// open list and chord arena, zeroed work counters and failure cause, empty
// read set.
//
//rdl:noalloc
func (s *searchScratch) begin(dstPos geom.Point, units int) {
	s.bestG = s.bestG[:0]
	s.gen++
	if s.gen == 0 { // generation counter wrapped: invalidate explicitly
		clear(s.stamps)
		clear(s.memo)
		s.gen = 1
	}
	s.arena = s.arena[:0]
	s.open.Reset()
	s.chords = s.chords[:0]
	s.dstPos = dstPos
	s.units = units
	s.expansions = 0
	s.heapPushes = 0
	s.revisit = false
	clear(s.read)
}

// mark adds node id to the read set.
//
//rdl:noalloc
func (s *searchScratch) mark(id rgraph.NodeID) {
	s.read[id>>6] |= 1 << (uint(id) & 63)
}

// push relaxes a state: admits it when it improves on the scoreboard and
// appends it to the arena and open list. The node's first push in the
// search gives it its scoreboard slots (see searchScratch).
//
//rdl:noalloc
func (r *Router) push(sc *searchScratch, key stateKey, g float64, parent, link int32) {
	if st := &sc.stamps[key.node]; st.gen != sc.gen {
		st.gen, st.base = sc.gen, int32(len(sc.bestG))
		n := 2 // a via node: viaArrive false / true
		if key.gap >= 0 {
			n = len(r.seqs[key.node]) + 1 // an edge node: gaps 0..len(seq)
		}
		for range n {
			sc.bestG = append(sc.bestG, math.Inf(1))
		}
	}
	slot := sc.slot(key)
	if sc.bestG[slot] <= g {
		return
	}
	sc.bestG[slot] = g
	f := g + r.G.Node(key.node).Pos.Dist(sc.dstPos)
	sc.arena = append(sc.arena, searchState{key: key, g: g, parent: parent, link: link})
	sc.open.Push(f, int32(len(sc.arena)-1))
	sc.heapPushes++
}

// route runs crossing-aware A* for one net on the given scratch and returns
// an uncommitted guide. It mutates only the scratch — router state is read
// but never written. The first pop of the target decides the search: when
// the path to it visits a node twice, the net fails (see the loop).
//
//rdl:noalloc
func (r *Router) route(sc *searchScratch, net design.Net) (*searchResult, error) {
	src, dst, err := r.G.NetPins(net)
	if err != nil {
		// Reset the scratch so the caller's counter fold sees an empty
		// search rather than the previous search's leftovers.
		sc.begin(geom.Point{}, 0)
		return nil, err
	}
	sc.begin(r.G.Node(dst).Pos, r.edgeUnits(net.ID))

	r.push(sc, stateKey{node: src, gap: -1}, 0, -1, -1)

	expanded := 0
	for sc.open.Len() > 0 {
		si := sc.open.Pop()
		st := sc.arena[si]
		if st.g > sc.bestG[sc.slot(st.key)] {
			continue // stale heap entry
		}
		if st.key.node == dst {
			res, ok := r.reconstruct(sc, net.ID, si)
			if ok {
				return res, nil
			}
			// The path visits a node twice, and no later state can reach
			// the target more cheaply, so the net fails here. The target is
			// a pin, which has no cross-via link (addLinks makes those only
			// for Plan.Vias), so this viaArrive=false state is its one
			// reachable slot. And the heuristic is consistent: every
			// AccessVia and CrossTile Len is the Pos.Dist of its ends,
			// math.Hypot is symmetric, and a cross-via's ends share Pos with
			// Len ≥ 0. Every later push therefore costs at least this pop's
			// f, the invariant the search's optimality already rests on.
			sc.revisit = true
			break
		}
		expanded++
		sc.expansions++
		if expanded > r.Opt.MaxExpansions {
			break
		}

		sc.mark(st.key.node)
		if r.G.Node(st.key.node).Kind == rgraph.ViaNode {
			r.expandVia(sc, st, si, net.ID)
		} else {
			r.expandEdge(sc, st, si, net.ID, dst)
		}
	}
	//rdl:allow noalloc failure path only: the error is built after the search is already lost, never per expansion
	return nil, fmt.Errorf("net %d (%s): %w", net.ID, net.Name, ErrUnroutable)
}

// expandVia expands a via-node state. A via entered through an access-via
// link must be left through its cross-via link (the wire descends or
// ascends); a via entered through a cross-via link must be left through an
// access-via link. The start pin may use anything available.
//
// The expansion reads the usage, capacity and sequence of every neighbour
// and, through each access-via link, the passages of its tile, which the
// sequences of the tile's three edge nodes resolve. It marks all of them in
// the read set before any check can skip the link.
//
//rdl:noalloc
func (r *Router) expandVia(sc *searchScratch, st searchState, si int32, net int) {
	arrivedCross := st.key.viaArrive
	isStart := st.link == -1
	for _, adj := range r.G.Neighbors(st.key.node) {
		sc.mark(adj.To)
		link := r.G.Link(int(adj.Link))
		switch link.Kind {
		case rgraph.CrossVia:
			if !isStart && arrivedCross {
				continue // no double layer hop through one via pair
			}
			// Per-net layer constraint: a static design property.
			if !r.G.LayerAllowed(net, int(r.G.Node(adj.To).Layer)) {
				continue
			}
			if r.linkUse[adj.Link] >= int(link.Cap) || r.nodeUse[adj.To] >= r.nodeCap[adj.To] {
				continue
			}
			r.push(sc, stateKey{node: adj.To, gap: -1, viaArrive: true}, st.g+link.Len, si, adj.Link)
		case rgraph.AccessVia:
			tile := r.G.TileOf(int(link.Layer), int(link.Tile))
			for _, e := range tile.EdgeNodes {
				sc.mark(e)
			}
			if !isStart && !arrivedCross {
				continue // entered by wire; must take the via down/up
			}
			if r.linkUse[adj.Link] >= int(link.Cap) || r.nodeUse[adj.To]+sc.units > r.nodeCap[adj.To] {
				continue
			}
			r.pushGaps(sc, net, tile, r.coord(tile, vertexEnd(int(adj.FromOrd))), adj, st.g+link.Len, si)
		}
	}
}

// expandEdge expands an edge-node state through its cross-tile and
// access-via links, enumerating crossing-free insertion gaps. Each tile of
// the node holds cross-tile links from it to the tile's other two edge
// nodes, so the neighbour marks, with route's mark of the node itself,
// cover every sequence the expansion reads.
//
//rdl:noalloc
func (r *Router) expandEdge(sc *searchScratch, st searchState, si int32, net int, dst rgraph.NodeID) {
	for _, adj := range r.G.Neighbors(st.key.node) {
		sc.mark(adj.To)
		link := r.G.Link(int(adj.Link))
		if r.linkUse[adj.Link] >= int(link.Cap) {
			continue
		}
		tile := r.G.TileOf(int(link.Layer), int(link.Tile))
		from := gapEnd(int(adj.FromOrd), int(st.key.gap))
		switch link.Kind {
		case rgraph.AccessVia:
			// adj.To is the via node (link.A is always the via end).
			if r.nodeUse[adj.To] >= r.nodeCap[adj.To] {
				continue
			}
			// Foreign pins are never intermediate hops.
			if to := r.G.Node(adj.To); to.VertKind == viaplan.KindPin && adj.To != dst &&
				!r.G.Design.SameGroup(r.G.Design.IOPads[to.Ref].Net, net) {
				continue
			}
			if !r.chordAllowed(sc, net, tile, from, vertexEnd(int(adj.ToOrd))) {
				continue
			}
			r.push(sc, stateKey{node: adj.To, gap: -1, viaArrive: false}, st.g+link.Len, si, adj.Link)
		case rgraph.CrossTile:
			if r.nodeUse[adj.To]+sc.units > r.nodeCap[adj.To] || r.linkUse[adj.Link]+sc.units > int(link.Cap) {
				continue
			}
			r.pushGaps(sc, net, tile, r.coord(tile, from), adj, st.g+link.Len, si)
		}
	}
}

// pushGaps pushes, at cost g, a state for every insertion gap of edge node
// adj.To whose chord from boundary coordinate q1 through the tile crosses
// no passage. It computes each gap's coordinate as coord does, with the
// sequence length and storage direction taken out of the loop.
//
//rdl:noalloc
func (r *Router) pushGaps(sc *searchScratch, net int, tile *rgraph.Tile, q1 float64,
	adj rgraph.Adjacent, g float64, si int32) {
	pcs := r.passageCoords(sc, net, tile)
	e := int(adj.ToOrd)
	m := len(r.seqs[adj.To])
	sameDir := int(tile.Verts[e]) == r.G.Node(adj.To).Edge.A
	for g2 := 0; g2 <= m; g2++ {
		var frac float64
		if sameDir {
			frac = (float64(g2) + 0.5) / float64(m+1)
		} else {
			frac = (float64(m-g2) + 0.5) / float64(m+1)
		}
		if chordAllowedCoords(q1, float64(2*e)+2*frac, pcs) {
			r.push(sc, stateKey{node: adj.To, gap: int16(g2)}, g, si, adj.Link)
		}
	}
}

// reconstruct walks the arena parents back to the start. It reports false
// when the path visits any node twice (a self-intersecting guide, which the
// commit machinery does not support). The revisit check reuses the scratch
// seen stamps instead of allocating a map per call.
//
//rdl:noalloc
func (r *Router) reconstruct(sc *searchScratch, net int, goal int32) (*searchResult, bool) {
	arena := sc.arena
	n := 0
	for i := goal; i != -1; i = arena[i].parent {
		n++
	}
	//rdl:allow noalloc the result path is budget alloc 1 of 4: commit keeps nodes in the Guide, so they cannot alias scratch
	nodes := make([]rgraph.NodeID, n)
	//rdl:allow noalloc the result path is budget alloc 2 of 4: commit keeps links in the Guide, so they cannot alias scratch
	links := make([]int, n-1)
	if cap(sc.gapsBuf) < n {
		//rdl:allow noalloc gapsBuf growth is amortized: it reallocates only while the longest path seen keeps growing
		sc.gapsBuf = make([]int, n)
	}
	gaps := sc.gapsBuf[:n]

	sc.seenGen++
	if sc.seenGen == 0 {
		for i := range sc.seen {
			sc.seen[i] = 0
		}
		sc.seenGen = 1
	}
	k := n - 1
	for i := goal; i != -1; i = arena[i].parent {
		st := &arena[i]
		if sc.seen[st.key.node] == sc.seenGen {
			return nil, false
		}
		sc.seen[st.key.node] = sc.seenGen
		nodes[k] = st.key.node
		gaps[k] = int(st.key.gap)
		if st.link != -1 {
			links[k-1] = int(st.link)
		}
		k--
	}
	// Note: a path may revisit a tile and topologically cross its own
	// earlier chord there. That is deliberately allowed: the minimum-spacing
	// rule of §II-B applies only between different nets, so a guide crossing
	// itself is electrically and DRC-legal (merely suboptimal, which the
	// shortest-path objective already discourages).
	//rdl:allow noalloc result header is budget alloc 3 of 4 pinned by TestRouteSearchDoesNotAllocate
	return &searchResult{net: net, nodes: nodes, links: links, gaps: gaps}, true
}
