// Package rgraph builds the multi-layer routing graph of the paper's §III-A1
// from the per-layer Delaunay meshes: via nodes and edge nodes connected by
// cross-via, access-via, and cross-tile edges, with the capacity model of
// Eq. 1 (tile-edge capacity) and Eq. 2 (corner capacity from the bisector
// effective length and the 3-segment routing pattern).
package rgraph

import (
	"errors"
	"fmt"
	"math"

	"rdlroute/internal/design"
	"rdlroute/internal/dt"
	"rdlroute/internal/geom"
	"rdlroute/internal/obs"
	"rdlroute/internal/pool"
	"rdlroute/internal/viaplan"
)

// NodeID identifies a search node in the graph.
type NodeID int32

// Invalid is the null NodeID.
const Invalid NodeID = -1

// NodeKind distinguishes the two search-node types of the paper.
type NodeKind uint8

// Search node kinds.
const (
	// ViaNode models a candidate via (N_v^i): capacity one.
	ViaNode NodeKind = iota
	// EdgeNode models the tile-edge segment between two candidate vias
	// (N_e^{i,j}): capacity per Eq. 1.
	EdgeNode
)

// EdgeKind distinguishes the three graph-edge types of the paper.
type EdgeKind uint8

// Graph edge kinds.
const (
	// CrossVia connects the two via nodes of one candidate via in adjacent
	// wire layers (E_v).
	CrossVia EdgeKind = iota
	// AccessVia connects a via node to the edge node opposite it within one
	// tile (E_a).
	AccessVia
	// CrossTile connects two edge nodes of one tile around their shared
	// corner (E_t); capacity per Eq. 2.
	CrossTile
)

// String returns a short name for the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case CrossVia:
		return "cross-via"
	case AccessVia:
		return "access-via"
	default:
		return "cross-tile"
	}
}

// Node is one search node. Its integer fields are narrowed so the record
// packs into 48 bytes; Build rejects a design whose indices do not fit them
// (ErrGraphTooLarge).
type Node struct {
	// Pos is the representative position used for path costs: the via
	// position for via nodes, the edge midpoint for edge nodes.
	Pos geom.Point
	// Edge is an edge node's mesh edge (vertex indices within the layer).
	// Graph.EdgeEnds returns the positions of its ends.
	Edge dt.Edge
	// Cap is the node capacity: 1 for candidate vias and pins, 0 for bump
	// and dummy vertices, Eq. 1 for edge nodes.
	Cap int32

	// Via-node fields.
	Ref  int32 // pad / via / bump ID per VertKind
	Vert int32 // mesh vertex index within the layer

	Layer    int16
	Kind     NodeKind
	VertKind viaplan.VertexKind // via nodes only
}

// Link is one graph edge instance with its own capacity and usage identity.
// Its ID is its index in Graph.Links. The integer fields are narrowed so the
// record packs into 32 bytes; Build rejects a design whose indices do not
// fit them (ErrGraphTooLarge).
type Link struct {
	// Len is the nominal length cost of traversing the link.
	Len  float64
	A, B NodeID
	Cap  int32
	// Tile locates access-via and cross-tile links within Layer; it is -1
	// for cross-via links, whose Layer is the lower of the two.
	Tile int32
	// Corner is the mesh vertex index of the tile corner a cross-tile link
	// wraps (or the via vertex of an access-via link), -1 for a cross-via
	// link.
	Corner int32
	Layer  int16
	Kind   EdgeKind
}

// Adjacent pairs a link with the neighbouring node it leads to. FromOrd and
// ToOrd are the ordinals (0..2), within the link's tile, of the list's own
// node and of To: the corner for a via node, the edge for an edge node.
// Both are -1 for a cross-via link, which has no tile.
type Adjacent struct {
	Link           int32
	To             NodeID
	FromOrd, ToOrd int8
}

// ErrGraphTooLarge is wrapped by Build's error when a design's layer count,
// or a node, link, tile, mesh-vertex or vertex-reference index, does not
// fit the packed fields of Node, Tile, Link, Adjacent and NodeID, or the
// adjacency's int32 offsets.
var ErrGraphTooLarge = errors.New("rgraph: graph too large for its packed records")

// Tile is one triangular tile with its node references in boundary order:
// the cyclic tile boundary is Verts[0], Edges[0], Verts[1], Edges[1],
// Verts[2], Edges[2] where Edges[i] joins Verts[i] and Verts[(i+1)%3]. Its
// fields are int32, which packs the record into 56 bytes.
type Tile struct {
	Layer     int32
	Tri       int32 // triangle index within the layer mesh
	Verts     [3]int32
	ViaNodes  [3]NodeID
	EdgeNodes [3]NodeID
	// CrossLinks[i] is the cross-tile link around corner Verts[i], which
	// connects Edges[(i+2)%3] and Edges[i].
	CrossLinks [3]int32
}

// VertexOrdinal returns the ordinal (0..2) of mesh vertex v within the
// tile, or -1.
func (t *Tile) VertexOrdinal(v int) int {
	for i, tv := range t.Verts {
		if int(tv) == v {
			return i
		}
	}
	return -1
}

// EdgeOrdinal returns the ordinal (0..2) of edge node en within the tile,
// or -1.
func (t *Tile) EdgeOrdinal(en NodeID) int {
	for i, te := range t.EdgeNodes {
		if te == en {
			return i
		}
	}
	return -1
}

// LayerGraph holds the per-wire-layer mesh and node lookup tables.
type LayerGraph struct {
	Index    int
	Mesh     *dt.Mesh
	Verts    []viaplan.Vertex // aligned with Mesh.Points
	VertNode []NodeID         // mesh vertex -> via node
	EdgeNode []NodeID         // mesh edge index -> edge node
	Tiles    []Tile           // aligned with Mesh.Tris
}

// Graph is the complete multi-layer routing graph.
type Graph struct {
	Design *design.Design
	Plan   *viaplan.Plan
	Layers []LayerGraph
	Nodes  []Node
	Links  []Link
	// adj holds every node's adjacency list in node order, and node id's
	// list is adj[adjOff[id]:adjOff[id+1]] (Neighbors).
	adj    []Adjacent
	adjOff []int32
	// PinNode maps an I/O pad ID to its via node.
	PinNode map[int]NodeID
	// Options the graph was built with.
	Opt Options
}

// Options tunes graph construction.
type Options struct {
	// ViaCost is the extra path cost of a cross-via link, discouraging
	// gratuitous layer changes. Nil (absent on the wire) selects a default
	// of 4× the via width; a pointer to 0 makes layer changes genuinely
	// free, and negative values clamp to 0.
	ViaCost *float64 `json:"via_cost"`
	// NaiveCornerCapacity disables the Eq. 2 effective-length model and
	// instead caps each cross-tile edge at the smaller Eq. 1 capacity of its
	// two edge nodes. Used by the ablation benchmarks: this is the
	// overestimate of Fig. 6(a) that causes corner spacing violations.
	NaiveCornerCapacity bool `json:"naive_corner_capacity"`
	// Workers is the worker-pool size for triangulating and assembling the
	// wire layers, one unit per layer. Zero or negative selects GOMAXPROCS
	// capped at 8; 1 builds serially. The graph is identical for every
	// value. router.Route fills it from Options.Parallelism.
	Workers int `json:"-"`
	// Rec receives the stage's spans and size counters. Nil selects the
	// no-op recorder.
	Rec obs.Recorder `json:"-"`
}

// ResolvedViaCost returns the effective cross-via link cost: the default
// 4×ViaWidth when ViaCost is nil, otherwise *ViaCost clamped to ≥ 0.
func (o Options) ResolvedViaCost(rules design.Rules) float64 {
	if o.ViaCost == nil {
		return 4 * rules.ViaWidth
	}
	if c := *o.ViaCost; c > 0 {
		return c
	}
	return 0
}

// ViaCostValue flattens a ViaCost pointer onto the scale of
// viaplan.Options.ViaCost: 0 means "use the default", a positive value is an
// explicit cost, and any negative value means "free" (explicit zero cost).
func ViaCostValue(p *float64) float64 {
	switch {
	case p == nil:
		return 0
	case *p > 0:
		return *p
	default:
		return -1
	}
}

// EdgeNodeCapacity implements Eq. 1: ⌊d(v_i, v_j) / (w_w + w_s)⌋.
func EdgeNodeCapacity(a, b geom.Point, rules design.Rules) int {
	return int(math.Floor(a.Dist(b) / rules.Pitch()))
}

// EffectiveEdgeCapacity is Eq. 1 corrected for via end clearance: wires
// crossing a tile edge must also clear the vias at the edge's endpoints, so
// only the span d − 2·(w_v/2 + w_s + w_w/2) is usable. Short sliver edges
// between a pin and a nearby via would otherwise admit wires that cannot be
// legalized. The corrected capacity never exceeds Eq. 1.
func EffectiveEdgeCapacity(a, b geom.Point, rules design.Rules) int {
	endClear := rules.ViaWireClearance(rules.WireWidth)
	usable := a.Dist(b) - 2*endClear
	if usable < 0 {
		return 0
	}
	cap := int(math.Floor(usable/rules.Pitch())) + 1
	if eq1 := EdgeNodeCapacity(a, b, rules); cap > eq1 {
		cap = eq1
	}
	return cap
}

// CornerCapacity implements Eq. 2: ⌊cos(ang(j)/4) · l(j) / (w_w + w_s)⌋,
// where v is the corner and a, b the adjacent triangle vertices.
func CornerCapacity(v, a, b geom.Point, rules design.Rules) int {
	ang := geom.AngleAt(v, a, b)
	l := geom.CornerEffectiveLength(v, a, b)
	return int(math.Floor(math.Cos(ang/4) * l / rules.Pitch()))
}

// Build constructs the routing graph for a design and its via plan. Node
// IDs run layer by layer: a layer's via nodes in mesh-vertex order, then its
// edge nodes in mesh-edge order. Link IDs run the cross-via links in plan
// order, then every layer's tiles in triangle order.
//
// The wire layers are built on a pool of Options.Workers in two phases, one
// unit per layer. Phase 1 triangulates the layer and decides which of its
// access-via links exist, which fixes every layer's first node and link ID.
// Phase 2 writes the layer's nodes and tile links at those IDs into arrays
// allocated once. The pin map, the cross-via links and the adjacency lists
// follow serially, so the graph is identical for every worker count.
//
// A plan of more than math.MaxInt16 wire layers, a layer whose vertex,
// tile or vertex-reference indices exceed math.MaxInt32, or a graph of
// more than math.MaxInt32 nodes or math.MaxInt32/2 links (each link is in
// two adjacency lists) fails with ErrGraphTooLarge before any packed field
// is written.
func Build(d *design.Design, plan *viaplan.Plan, opt Options) (*Graph, error) {
	if len(plan.Layers) > math.MaxInt16 {
		return nil, fmt.Errorf("%w: %d wire layers, at most %d", ErrGraphTooLarge, len(plan.Layers), math.MaxInt16)
	}
	rec := obs.Or(opt.Rec)
	workers := pool.Default(opt.Workers)
	g := &Graph{
		Design:  d,
		Plan:    plan,
		Layers:  make([]LayerGraph, len(plan.Layers)),
		PinNode: make(map[int]NodeID, len(d.IOPads)),
		Opt:     opt,
	}

	// Phase 1: triangulate each layer and pick its access-via links.
	triangulate := make([]func(int) layerSlots, len(g.Layers))
	for li := range triangulate {
		triangulate[li] = func(int) layerSlots { return g.triangulateLayer(li, rec) }
	}
	slots := pool.Run(triangulate, workers)
	nVias := len(plan.Vias)
	nodes, links := 0, nVias
	for li, sl := range slots {
		if sl.err != nil {
			return nil, fmt.Errorf("rgraph: layer %d: %w", li, sl.err)
		}
		slots[li].firstNode, slots[li].firstLink = nodes, links
		mesh := g.Layers[li].Mesh
		if len(mesh.Points) > math.MaxInt32 || len(mesh.Tris) > math.MaxInt32 {
			return nil, fmt.Errorf("%w: layer %d has %d vertices and %d tiles, at most %d each",
				ErrGraphTooLarge, li, len(mesh.Points), len(mesh.Tris), math.MaxInt32)
		}
		nodes += len(mesh.Points) + len(mesh.Edges())
		links += sl.links
	}
	if nodes > math.MaxInt32 || links > math.MaxInt32/2 {
		return nil, fmt.Errorf("%w: %d nodes and %d links, at most %d and %d",
			ErrGraphTooLarge, nodes, links, math.MaxInt32, math.MaxInt32/2)
	}

	// Phase 2: each layer's nodes and tile links at their final IDs.
	g.Nodes = make([]Node, nodes)
	g.Links = make([]Link, links)
	// viaNode[layer·nVias + via ID] is the via's node on a wire layer, or
	// Invalid. Each layer writes only its own stretch.
	viaNode := make([]NodeID, len(plan.Layers)*nVias)
	for i := range viaNode {
		viaNode[i] = Invalid
	}
	padNetCount := d.PadNetCount()
	build := make([]func(int) struct{}, len(g.Layers))
	for li := range build {
		build[li] = func(int) struct{} {
			span := obs.StartSpan(rec, "rgraph.nodes")
			g.addLayerNodes(li, slots[li].firstNode, padNetCount, viaNode)
			span.End()
			span = obs.StartSpan(rec, "rgraph.links")
			g.addTileLinks(li, slots[li])
			span.End()
			return struct{}{}
		}
	}
	pool.Run(build, workers)

	span := obs.StartSpan(rec, "rgraph.adj")
	err := g.finishLinks(viaNode)
	span.End()
	if err != nil {
		return nil, err
	}
	if rec.Enabled() {
		s := g.Stats()
		rec.Count("rgraph.via_nodes", int64(s.ViaNodes))
		rec.Count("rgraph.edge_nodes", int64(s.EdgeNodes))
		rec.Count("rgraph.links", int64(len(g.Links)))
	}
	return g, nil
}

// layerSlots is phase 1's result for one layer: which access-via links its
// tiles get and its tile-link count, or the triangulation error. Build adds
// the layer's first node and link IDs.
type layerSlots struct {
	// access[ti] has bit i set when corner i of triangle ti gets the
	// access-via link to its opposite edge.
	access               []uint8
	links                int
	err                  error
	firstNode, firstLink int
}

// triangulateLayer triangulates wire layer li, aligns the vertex metadata
// with the (deduplicated) mesh vertex set, and picks the layer's access-via
// links. With three cross-tile links per tile, they give the layer's
// tile-link count.
func (g *Graph) triangulateLayer(li int, rec obs.Recorder) layerSlots {
	verts := g.Plan.Layers[li].Verts
	span := obs.StartSpan(rec, "rgraph.dt")
	pts := make([]geom.Point, len(verts))
	for i, v := range verts {
		if v.Ref < math.MinInt32 || v.Ref > math.MaxInt32 {
			span.End()
			return layerSlots{err: fmt.Errorf("%w: vertex %d refers to %v %d, beyond int32",
				ErrGraphTooLarge, i, v.Kind, v.Ref)}
		}
		pts[i] = v.Pos
	}
	mesh, err := dt.Triangulate(pts)
	span.End()
	if err != nil {
		return layerSlots{err: err}
	}
	lg := &g.Layers[li]
	*lg = LayerGraph{Index: li, Mesh: mesh, Verts: make([]viaplan.Vertex, len(mesh.Points))}
	for in, vi := range mesh.InputVertex {
		lg.Verts[vi] = verts[in]
	}

	// Each corner gets an access-via link to the midpoint of the opposite
	// edge (the edge node's position), except that bumps and dummies carry
	// no via access and a chord that would carry the wire through an
	// in-tile keep-out is left out (cap 0 would not stop the search, since
	// links use their own capacity). Only a layer with keep-outs needs the
	// chord test.
	d := g.Design
	keepOuts := len(d.ObstaclesOnLayer(li)) > 0
	clearance := d.Rules.Pitch()
	edges := mesh.Edges()
	sl := layerSlots{access: make([]uint8, len(mesh.Tris)), links: 3 * len(mesh.Tris)}
	for ti, tri := range mesh.Tris {
		for i := 0; i < 3; i++ {
			if k := lg.Verts[tri.V[i]].Kind; k != viaplan.KindVia && k != viaplan.KindPin {
				continue
			}
			if keepOuts {
				opp := edges[mesh.TriEdge(ti, (i+1)%3)] // edge (i+1, i+2) is opposite corner i
				mid := geom.Mid(mesh.Points[opp.A], mesh.Points[opp.B])
				if d.SegmentBlocked(geom.Seg(mesh.Points[tri.V[i]], mid), li, clearance) {
					continue
				}
			}
			sl.access[ti] |= 1 << i
			sl.links++
		}
	}
	return sl
}

// addLayerNodes writes layer li's via nodes, one per mesh vertex, then its
// edge nodes, one per mesh edge, from node ID first on. A pin's via
// capacity is the number of subnets terminating at it (multi-pin groups
// share pads).
func (g *Graph) addLayerNodes(li, first int, padNetCount []int, viaNode []NodeID) {
	d := g.Design
	lg := &g.Layers[li]
	mesh := lg.Mesh
	nVias := len(g.Plan.Vias)
	nodes := g.Nodes[first : first+len(mesh.Points)+len(mesh.Edges())]
	layer := int16(li) // Build bounds the layer count by math.MaxInt16

	lg.VertNode = make([]NodeID, len(mesh.Points))
	for vi := range mesh.Points {
		meta := lg.Verts[vi]
		capv := 0
		switch meta.Kind {
		case viaplan.KindVia:
			capv = 1
		case viaplan.KindPin:
			capv = padNetCount[meta.Ref]
			if capv < 1 {
				capv = 1
			}
		}
		// Phase 1 bounds Ref and the vertex count by math.MaxInt32; a pin
		// shared by more subnets than that routes the same saturated.
		nodes[vi] = Node{
			Kind:     ViaNode,
			Layer:    layer,
			Pos:      mesh.Points[vi],
			Cap:      int32(min(capv, math.MaxInt32)),
			VertKind: meta.Kind,
			Ref:      int32(meta.Ref),
			Vert:     int32(vi),
		}
		id := NodeID(first + vi)
		lg.VertNode[vi] = id
		if meta.Kind == viaplan.KindVia && meta.Ref >= 0 && meta.Ref < nVias {
			viaNode[li*nVias+meta.Ref] = id
		}
	}

	// Edge nodes, one per mesh edge. Blocking is tile-conservative: an edge
	// carries no wires when it enters a keep-out OR when either incident
	// tile overlaps one — detailed geometry (access points, fit detours) may
	// wander anywhere inside a tile, so partially covered tiles cannot be
	// trusted.
	clearance := d.Rules.Pitch()
	blockedTri := make([]bool, len(mesh.Tris))
	for ti, tri := range mesh.Tris {
		blockedTri[ti] = triangleBlocked(d, li, clearance,
			mesh.Points[tri.V[0]], mesh.Points[tri.V[1]], mesh.Points[tri.V[2]])
	}
	lg.EdgeNode = make([]NodeID, len(mesh.Edges()))
	for ei, e := range mesh.Edges() {
		a, b := mesh.Points[e.A], mesh.Points[e.B]
		capE := EffectiveEdgeCapacity(a, b, d.Rules)
		if d.SegmentBlocked(geom.Seg(a, b), li, clearance) {
			capE = 0
		}
		for _, ti := range mesh.EdgeTris(ei) {
			if ti != -1 && blockedTri[ti] {
				capE = 0
			}
		}
		k := len(mesh.Points) + ei
		lg.EdgeNode[ei] = NodeID(first + k)
		// An edge of more than math.MaxInt32 pitches admits more nets than
		// any design has, so saturating the packed field routes the same.
		nodes[k] = Node{
			Kind:  EdgeNode,
			Layer: layer,
			Pos:   geom.Mid(a, b),
			Cap:   int32(min(capE, math.MaxInt32)),
			Edge:  e,
		}
	}
}

// addTileLinks builds layer li's tiles and writes their access-via and
// cross-tile links, in triangle order, into the layer's link slots.
func (g *Graph) addTileLinks(li int, sl layerSlots) {
	d := g.Design
	lg := &g.Layers[li]
	mesh := lg.Mesh
	links := g.Links[sl.firstLink : sl.firstLink+sl.links : sl.firstLink+sl.links]
	k := 0
	addLink := func(l Link) int32 {
		id := int32(sl.firstLink + k) // Build bounds the link count by math.MaxInt32/2
		links[k] = l
		k++
		return id
	}

	clearance := d.Rules.Pitch()
	layer := int16(li) // Build bounds the layer count by math.MaxInt16
	lg.Tiles = make([]Tile, len(mesh.Tris))
	for ti, tri := range mesh.Tris {
		// Build bounds the vertex and tile counts by math.MaxInt32.
		t := Tile{Layer: int32(li), Tri: int32(ti),
			Verts: [3]int32{int32(tri.V[0]), int32(tri.V[1]), int32(tri.V[2])}}
		for i := 0; i < 3; i++ {
			t.ViaNodes[i] = lg.VertNode[tri.V[i]]
			t.EdgeNodes[i] = lg.EdgeNode[mesh.TriEdge(ti, i)]
		}
		// Access-via: each corner phase 1 admitted to the opposite edge node.
		for i := 0; i < 3; i++ {
			if sl.access[ti]&(1<<i) == 0 {
				continue
			}
			vn, opp := t.ViaNodes[i], t.EdgeNodes[(i+1)%3]
			addLink(Link{Kind: AccessVia, A: vn, B: opp, Cap: 1,
				Layer: layer, Tile: int32(ti), Corner: int32(tri.V[i]),
				Len: g.Nodes[vn].Pos.Dist(g.Nodes[opp].Pos)})
		}
		// Cross-tile: around each corner i, connecting the two incident
		// edges, Edges[(i+2)%3] (joins i-1, i) and Edges[i] (joins i, i+1).
		for i := 0; i < 3; i++ {
			ea := t.EdgeNodes[(i+2)%3]
			eb := t.EdgeNodes[i]
			v := mesh.Points[tri.V[i]]
			a := mesh.Points[tri.V[(i+1)%3]]
			b := mesh.Points[tri.V[(i+2)%3]]
			var capc int
			if g.Opt.NaiveCornerCapacity {
				capc = int(min(g.Nodes[ea].Cap, g.Nodes[eb].Cap))
			} else {
				capc = CornerCapacity(v, a, b, d.Rules)
			}
			if d.SegmentBlocked(geom.Seg(g.Nodes[ea].Pos, g.Nodes[eb].Pos), li, clearance) {
				capc = 0
			}
			// A corner of more than math.MaxInt32 pitches admits more nets
			// than any design has, so saturating the packed field routes
			// the same.
			capc = min(capc, math.MaxInt32)
			t.CrossLinks[i] = addLink(Link{Kind: CrossTile, A: ea, B: eb, Cap: int32(capc),
				Layer: layer, Tile: int32(ti), Corner: int32(tri.V[i]),
				Len: g.Nodes[ea].Pos.Dist(g.Nodes[eb].Pos)})
		}
		lg.Tiles[ti] = t
	}
}

// finishLinks fills the pin map in layer order, writes the cross-via links
// (the two nodes of each candidate via) ahead of the tile links, and builds
// the adjacency lists.
func (g *Graph) finishLinks(viaNode []NodeID) error {
	for li := range g.Layers {
		lg := &g.Layers[li]
		for vi, meta := range lg.Verts {
			if meta.Kind == viaplan.KindPin {
				g.PinNode[meta.Ref] = lg.VertNode[vi]
			}
		}
	}

	nVias := len(g.Plan.Vias)
	viaCost := g.Opt.ResolvedViaCost(g.Design.Rules)
	for i, v := range g.Plan.Vias {
		a, b := Invalid, Invalid
		if v.ID >= 0 && v.ID < nVias && v.Layer >= 0 && v.Layer+1 < len(g.Layers) {
			a = viaNode[v.Layer*nVias+v.ID]
			b = viaNode[(v.Layer+1)*nVias+v.ID]
		}
		if a == Invalid || b == Invalid {
			return fmt.Errorf("rgraph: via %d missing a layer node", v.ID)
		}
		g.Links[i] = Link{Kind: CrossVia, A: a, B: b, Cap: 1, Layer: int16(v.Layer), Tile: -1,
			Corner: -1, Len: viaCost}
	}

	// Adjacency in one array, each node's list in link-ID order: that is
	// the neighbour order A* tie-breaking depends on. adjOff[id] first
	// holds the end of id's list; filling the links back to front moves it
	// to the start. Build bounds 2·len(Links) by math.MaxInt32.
	g.adjOff = make([]int32, len(g.Nodes)+1)
	for _, l := range g.Links {
		g.adjOff[l.A]++
		g.adjOff[l.B]++
	}
	end := int32(0)
	for id := range g.Nodes {
		end += g.adjOff[id]
		g.adjOff[id] = end
	}
	g.adjOff[len(g.Nodes)] = end
	g.adj = make([]Adjacent, end)
	for i := len(g.Links) - 1; i >= 0; i-- {
		l := &g.Links[i]
		a, b := g.tileOrdinals(l)
		id := int32(i)
		g.adjOff[l.A]--
		g.adj[g.adjOff[l.A]] = Adjacent{Link: id, To: l.B, FromOrd: a, ToOrd: b}
		g.adjOff[l.B]--
		g.adj[g.adjOff[l.B]] = Adjacent{Link: id, To: l.A, FromOrd: b, ToOrd: a}
	}
	return nil
}

// tileOrdinals returns the ordinals of a link's ends A and B within its
// tile, or -1 and -1 for a cross-via link.
func (g *Graph) tileOrdinals(l *Link) (a, b int8) {
	if l.Kind == CrossVia {
		return -1, -1
	}
	t := g.TileOf(int(l.Layer), int(l.Tile))
	return t.ordinal(l.A), t.ordinal(l.B)
}

// ordinal returns the ordinal of node id within the tile: its corner when
// it is one of the tile's via nodes, else its edge.
func (t *Tile) ordinal(id NodeID) int8 {
	for i := range 3 {
		if t.ViaNodes[i] == id || t.EdgeNodes[i] == id {
			return int8(i)
		}
	}
	return -1
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return &g.Nodes[id] }

// Neighbors returns node id's adjacency list in link-ID order. The slice
// is shared with the graph; do not modify it.
//
//rdl:noalloc
func (g *Graph) Neighbors(id NodeID) []Adjacent {
	lo, hi := g.adjOff[id], g.adjOff[id+1]
	return g.adj[lo:hi:hi]
}

// EdgeEnds returns the positions of the mesh vertices an edge node's edge
// joins, Edge.A's first.
//
//rdl:noalloc
func (g *Graph) EdgeEnds(id NodeID) (a, b geom.Point) {
	n := &g.Nodes[id]
	pts := g.Layers[n.Layer].Mesh.Points
	return pts[n.Edge.A], pts[n.Edge.B]
}

// Link returns the link with the given ID.
func (g *Graph) Link(id int) *Link { return &g.Links[id] }

// LayerAllowed reports whether a net may place wires on a wire layer,
// delegating to the design's per-net MaxLayers constraint. The global
// router consults it before descending through a cross-via link.
func (g *Graph) LayerAllowed(netID, layer int) bool {
	return g.Design.LayerAllowed(netID, layer)
}

// NetPins returns the source and target via nodes of a net.
//
//rdl:noalloc
func (g *Graph) NetPins(n design.Net) (NodeID, NodeID, error) {
	s, okS := g.PinNode[n.Pins[0]]
	t, okT := g.PinNode[n.Pins[1]]
	if !okS || !okT {
		//rdl:allow noalloc failure path: a missing pin node is a malformed design and aborts the route; the warm path never builds the error
		return Invalid, Invalid, fmt.Errorf("rgraph: net %d pins not in graph", n.ID)
	}
	return s, t, nil
}

// TileOf returns the tile metadata for (layer, triangle).
func (g *Graph) TileOf(layer, tri int) *Tile { return &g.Layers[layer].Tiles[tri] }

// Stats summarizes graph size for logging and tests.
type Stats struct {
	ViaNodes, EdgeNodes            int
	CrossVia, AccessVia, CrossTile int
	Layers                         int
}

// Stats returns counts of nodes and links by kind.
func (g *Graph) Stats() Stats {
	var s Stats
	s.Layers = len(g.Layers)
	for _, n := range g.Nodes {
		if n.Kind == ViaNode {
			s.ViaNodes++
		} else {
			s.EdgeNodes++
		}
	}
	for _, l := range g.Links {
		switch l.Kind {
		case CrossVia:
			s.CrossVia++
		case AccessVia:
			s.AccessVia++
		case CrossTile:
			s.CrossTile++
		}
	}
	return s
}

// triangleBlocked reports whether the triangle (a, b, c) overlaps any
// keep-out of the layer, expanded by the clearance.
func triangleBlocked(d *design.Design, layer int, clearance float64, a, b, c geom.Point) bool {
	// Edge or vertex contact.
	if d.SegmentBlocked(geom.Seg(a, b), layer, clearance) ||
		d.SegmentBlocked(geom.Seg(b, c), layer, clearance) ||
		d.SegmentBlocked(geom.Seg(c, a), layer, clearance) {
		return true
	}
	// Obstacle entirely inside the triangle: test one obstacle corner.
	for _, o := range d.ObstaclesOnLayer(layer) {
		if geom.PointInTriangle(o.Rect.Min, a, b, c) {
			return true
		}
	}
	return false
}
