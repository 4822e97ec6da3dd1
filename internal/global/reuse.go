package global

import (
	"math"
	"slices"

	"rdlroute/internal/geom"
	"rdlroute/internal/rgraph"
)

// Cross-round search reuse.
//
// Net-order adjustment (§III-A3c) rips up every guide after a failed round
// and routes all nets again in the new order, yet most nets then find the
// guide they found before. The round loop therefore skips a net's A* search
// when nothing the search read has changed since the net was last searched,
// and commits the stored guide (or records the stored failure) instead.
//
// Each search records a read box per wire layer (searchScratch.noteRead).
// The loop keeps the ordered commit log of the round in flight and of the
// round before, one entry per commit: the net, its guide version and its
// per-layer guide box. reusable decides a net from the two logs; its comment
// holds the exactness argument.

// emptyRect is the box of no points: it meets nothing, and widening it by a
// point yields that point.
var emptyRect = geom.Rect{
	Min: geom.Point{X: math.Inf(1), Y: math.Inf(1)},
	Max: geom.Point{X: math.Inf(-1), Y: math.Inf(-1)},
}

// widenRect grows b to cover the square of half-width d around p.
//
//rdl:noalloc
func widenRect(b *geom.Rect, p geom.Point, d float64) {
	b.Min.X = min(b.Min.X, p.X-d)
	b.Min.Y = min(b.Min.Y, p.Y-d)
	b.Max.X = max(b.Max.X, p.X+d)
	b.Max.Y = max(b.Max.Y, p.Y+d)
}

// meetsAny reports whether any layer's box in a meets the same layer's box
// in b.
//
//rdl:noalloc
func meetsAny(a, b []geom.Rect) bool {
	for li := range a {
		if a[li].Intersects(b[li]) {
			return true
		}
	}
	return false
}

// nodeReach returns the largest Chebyshev distance from p, the position of
// node id, to a vertex or edge node of any tile that holds one of the node's
// access-via or cross-tile links, as a float32 rounded up by coverReach.
// Expanding the node reads router state only at positions within that
// distance on its layer, plus at its own position on the adjacent layers
// when it is a via node (see noteRead). An edge node sits at the midpoint of
// its mesh edge, inside the box of the tile's vertices, so the vertices
// decide the distance; they come from the compact mesh point array rather
// than the node table.
//
//rdl:noalloc
func nodeReach(g *rgraph.Graph, id rgraph.NodeID, p geom.Point) float32 {
	var d float32
	var last *rgraph.Tile
	for _, adj := range g.Adj[id] {
		l := g.Link(adj.Link)
		if l.Kind == rgraph.CrossVia {
			continue
		}
		// A tile's links have consecutive IDs, so they sit together in the
		// adjacency list and each tile is covered once.
		t := g.TileOf(l.Layer, l.Tile)
		if t == last {
			continue
		}
		last = t
		pts := g.Layers[l.Layer].Mesh.Points
		box := emptyRect
		for _, v := range t.Verts {
			widenRect(&box, pts[v], 0)
		}
		d = coverReach(p, box, d)
	}
	return d
}

// coverReach returns the smallest d' ≥ d, up to rounding, for which the
// square of half-width d' around p, as widenRect computes it, holds box b.
// The distance alone is not enough: float32 rounding can shrink it, and
// p.X-d can round past b.Min.X, so d' steps up to the next float32 until
// the rounded square holds b.
//
//rdl:noalloc
func coverReach(p geom.Point, b geom.Rect, d float32) float32 {
	for {
		r := float64(d)
		if p.X-r <= b.Min.X && b.Max.X <= p.X+r && p.Y-r <= b.Min.Y && b.Max.Y <= p.Y+r {
			return d
		}
		if need := float32(max(p.X-b.Min.X, b.Max.X-p.X, p.Y-b.Min.Y, b.Max.Y-p.Y)); need > d {
			d = need
		} else {
			d = math.Nextafter32(d, float32(math.Inf(1)))
		}
	}
}

// logEntry is one commit of a round: the net and its guide version. The
// commit's per-layer guide box sits beside it in the log's box array.
type logEntry struct{ net, version int32 }

// netMemo is what the round loop remembers of a net between rounds.
type netMemo struct {
	// turn is the length of the previous round's commit log when the net had
	// its turn there, whether it was searched, reused or failed; -1 before
	// its first turn.
	turn int32
	// version counts the guide changes of the net: it moves whenever a
	// committed guide differs from the net's previous one in its nodes,
	// links or gaps (0 before the first), so (net, version) names one guide.
	version int32
	// failed reports that the net's last search found no guide.
	failed bool
	// guide is the net's last committed guide. Its nodes and links are
	// shared with the net's Guide: once the rip-up releases that Guide, a
	// reuse hands them to the next one. gaps is the net's own copy, because
	// a search's gaps alias scratch storage.
	guide searchResult
}

// reuseState is the round loop's memo. Run sizes it once, before the first
// round, and drops it when the loop ends.
type reuseState struct {
	layers int
	nets   []netMemo
	// readBox holds layers boxes per net: the read boxes of its last search.
	readBox []geom.Rect
	// prev and cur are the commit logs of the previous round and of the
	// round in flight; prevBox and curBox hold layers guide boxes per entry.
	prev, cur       []logEntry
	prevBox, curBox []geom.Rect
	// prevValid reports that the previous round started from an empty
	// board, so its log describes every state its searches read.
	prevValid, curValid bool
	// reused counts the round's reused searches.
	reused int
}

func newReuseState(nNets, layers int) *reuseState {
	rs := &reuseState{
		layers:  layers,
		nets:    make([]netMemo, nNets),
		readBox: make([]geom.Rect, nNets*layers),
		prev:    make([]logEntry, 0, nNets),
		cur:     make([]logEntry, 0, nNets),
		prevBox: make([]geom.Rect, nNets*layers),
		curBox:  make([]geom.Rect, nNets*layers),
	}
	for i := range rs.nets {
		rs.nets[i].turn = -1
	}
	return rs
}

// beginRound makes the round that just ended the reference and empties the
// log for the next. empty reports that the board holds no guide.
func (rs *reuseState) beginRound(empty bool) {
	rs.prev, rs.cur = rs.cur, rs.prev[:0]
	rs.prevBox, rs.curBox = rs.curBox, rs.prevBox
	rs.prevValid, rs.curValid = rs.curValid, empty
	rs.reused = 0
}

// reusable reports whether net ni's last search would return the same
// result if it ran now, on the board its predecessors of this round
// committed.
//
// The answer is exact. A round starts from an empty board, and inside the
// round loop router state changes only through commit (capOverride changes
// only in refinement, after the loop). So the state at a net's turn is fixed
// by the ordered list of guides committed before it. A search reads router
// state only at positions inside its read boxes, and a commit writes only at
// its guide's nodes, links and tiles: usage and sequences at its nodes, link
// usage between two of them, passages in tiles whose boundary holds them.
// Every such write that a search reads therefore comes from a guide with a
// node in a read box, whose guide box meets that read box. The commits whose
// guide box meets no read box change nothing the search reads.
//
// Suppose the commits of this round that meet the net's read boxes equal,
// in order and as (net, version) pairs, the commits of the previous round
// that met them before the net's turn there. A (net, version) pair names one
// guide, nodes, links and gaps, so both lists made the same writes in the
// same order, and every value the search reads is what it was then. The
// search is deterministic: it would expand the same states, read the same
// values and return the same result. When the net was itself reused in the
// previous round, the same equality held there, so the chain reaches back to
// the search that recorded the boxes.
//
//rdl:noalloc
func (rs *reuseState) reusable(ni int) bool {
	m := &rs.nets[ni]
	if !rs.prevValid || m.turn < 0 {
		return false
	}
	L := rs.layers
	read := rs.readBox[ni*L : (ni+1)*L]
	prev := rs.prev[:m.turn]
	j := 0
	for e, ce := range rs.cur {
		if !meetsAny(rs.curBox[e*L:(e+1)*L], read) {
			continue
		}
		for j < len(prev) && !meetsAny(rs.prevBox[j*L:(j+1)*L], read) {
			j++
		}
		if j == len(prev) || prev[j] != ce {
			return false
		}
		j++
	}
	for ; j < len(prev); j++ {
		if meetsAny(rs.prevBox[j*L:(j+1)*L], read) {
			return false
		}
	}
	return true
}

// recall returns net ni's stored guide, or nil for a stored failure.
//
//rdl:noalloc
func (rs *reuseState) recall(ni int) *searchResult {
	rs.reused++
	if m := &rs.nets[ni]; !m.failed {
		return &m.guide
	}
	return nil
}

// remember stores the outcome of a search of net ni that just ran: its read
// boxes and g, the guide found, or nil for a failure. It returns the stored
// guide, or nil.
func (rs *reuseState) remember(ni int, box []geom.Rect, g *searchResult) *searchResult {
	copy(rs.readBox[ni*rs.layers:(ni+1)*rs.layers], box)
	m := &rs.nets[ni]
	m.failed = g == nil
	if g == nil {
		return nil
	}
	s := &m.guide
	if !slices.Equal(s.nodes, g.nodes) || !slices.Equal(s.links, g.links) || !slices.Equal(s.gaps, g.gaps) {
		m.version++
	}
	s.net, s.nodes, s.links = g.net, g.nodes, g.links
	s.gaps = append(s.gaps[:0], g.gaps...)
	return s
}

// noteTurn records that net ni takes its turn now, before its commit.
//
//rdl:noalloc
func (rs *reuseState) noteTurn(ni int) {
	rs.nets[ni].turn = int32(len(rs.cur))
}

// logCommit appends net ni's commit, its stored guide, to the round's log.
//
//rdl:noalloc
func (rs *reuseState) logCommit(g *rgraph.Graph, ni int) {
	e := len(rs.cur)
	box := rs.curBox[e*rs.layers : (e+1)*rs.layers]
	for li := range box {
		box[li] = emptyRect
	}
	for _, id := range rs.nets[ni].guide.nodes {
		n := g.Node(id)
		widenRect(&box[n.Layer], n.Pos, 0)
	}
	rs.cur = append(rs.cur, logEntry{net: int32(ni), version: rs.nets[ni].version})
}
