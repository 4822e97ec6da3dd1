// Package global implements the global-routing stage of the paper (§III-A):
// RUDY-based initial net ordering, crossing-aware A* search over the
// multi-layer routing graph with per-edge-node net-sequence lists, diagonal
// utility refinement (Eq. 3), and failure-count-driven net order adjustment.
//
// Its output is one routing guide per net: a non-crossing path of via nodes
// and edge nodes whose capacities (Eq. 1 and Eq. 2) are respected.
package global

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"rdlroute/internal/obs"
	"rdlroute/internal/pool"
	"rdlroute/internal/portfolio"
	"rdlroute/internal/rgraph"
)

// Guide is the routing guide of one net: an alternating path of via nodes
// and edge nodes, with Links[i] the graph link between Nodes[i] and
// Nodes[i+1].
type Guide struct {
	Net   int
	Nodes []rgraph.NodeID
	Links []int
}

// Options tunes the global router.
type Options struct {
	// MaxOrderRounds bounds the net-order adjustment loop. Zero selects 8.
	MaxOrderRounds int `json:"max_order_rounds"`
	// DisableRUDYOrder skips congestion-based initial ordering and routes
	// nets in ID order (ablation). It wins over Order: the standalone seed
	// routes that feed the ordering model are not computed at all.
	DisableRUDYOrder bool `json:"disable_rudy_order"`
	// Order is the net-ordering strategy consuming the RUDY seed features
	// (see internal/portfolio). Nil selects portfolio.RUDY — the paper's
	// policy — over a code path byte-identical to the pre-portfolio router.
	Order portfolio.Strategy `json:"-"`
	// DisableDiagonalRefinement skips the Eq. 3 refinement pass (ablation).
	DisableDiagonalRefinement bool `json:"disable_diagonal_refinement"`
	// EdgeUsePerNet is how many capacity units each guide consumes on every
	// edge node it crosses. The default 1 is the paper's model; the AARF*
	// baseline uses 3 to emulate the resource waste of treating each routed
	// net as a hard constraint corridor in a rebuilt triangulation.
	EdgeUsePerNet int `json:"edge_use_per_net"`
	// AfterRound, when non-nil, runs at the end of every net-order
	// adjustment round (after the round's rip-ups), with the zero-based
	// round index. Tests use it to assert CheckInvariants between rounds.
	AfterRound func(round int) `json:"-"`
	// AfterEachNet, when non-nil, runs after every successfully committed
	// net with the router and that net's ID. The AARF* baseline
	// re-triangulates every layer here, paying the per-net mesh-rebuild
	// cost the original algorithm incurs.
	AfterEachNet func(r *Router, net int) `json:"-"`
	// Parallelism is the worker-pool size of the standalone ordering-seed
	// searches, which are independent per net. Zero selects GOMAXPROCS
	// capped at 8 (pool.Default). The round loop itself is serial, so
	// output is byte-identical for every value.
	Parallelism int `json:"-"`
	// Rec receives stage spans, counters and the per-net progress stream.
	// Nil selects the no-op recorder. Cancellation is the context passed
	// to Run (the paper's 1-hour wall-clock cutoff becomes a deadline).
	Rec obs.Recorder `json:"-"`
}

func (o Options) withDefaults() Options {
	if o.MaxOrderRounds == 0 {
		o.MaxOrderRounds = 8
	}
	if o.EdgeUsePerNet == 0 {
		o.EdgeUsePerNet = 1
	}
	return o
}

// parallelism resolves the Parallelism knob through the pipeline's shared
// zero-means-auto convention.
func (o Options) parallelism() int { return pool.Default(o.Parallelism) }

// Result is the outcome of global routing.
type Result struct {
	// Guides holds one guide per net ID; nil entries are unrouted nets.
	Guides []*Guide
	// FailedNets lists net IDs that could not be routed.
	FailedNets []int
	// OrderRounds is the number of net-order adjustment rounds used.
	OrderRounds int
	// RipUps counts guides ripped up across all rounds (diagonal-refinement
	// reroutes included).
	RipUps int
	// DiagonalReductions counts edge-node capacity reductions performed by
	// diagonal utility refinement.
	DiagonalReductions int
	// Expansions counts total A* state expansions across every search that
	// ran in the round loop and diagonal refinement; a reused search expands
	// nothing.
	Expansions int
}

// Routability returns the fraction of nets routed, in [0, 1].
func (r *Result) Routability() float64 {
	if len(r.Guides) == 0 {
		return 1
	}
	routed := 0
	for _, g := range r.Guides {
		if g != nil {
			routed++
		}
	}
	return float64(routed) / float64(len(r.Guides))
}

// Router holds the mutable global-routing state over a routing graph.
type Router struct {
	G   *rgraph.Graph
	Opt Options
	rec obs.Recorder

	// nodeUse and linkUse are the capacity units the committed guides take
	// at each node and link. They are int32 like the graph's capacities,
	// and admission keeps a use at or below its capacity, so they cannot
	// overflow; the admission tests compare in int (sc.units can be large).
	nodeUse []int32
	linkUse []int32
	// nodeCap is the effective capacity of each node: the graph's, until
	// diagonal refinement reduces it.
	nodeCap []int32
	// seqs holds, for each edge node, the ordered net IDs crossing it
	// (storage order: from Edge.A's position toward Edge.B's). A list gets
	// its room from seqSlab on its first insert and moves to a room twice
	// its size when it is full (growSeq); rip-up keeps the room.
	seqs [][]int
	// seqSlab is the unused tail of the chunk the list rooms are cut from.
	seqSlab []int
	// passages holds the committed chords per tile, indexed by the dense
	// tile index tileBase[layer]+tri (see tileIndex).
	passages [][]passage
	tileBase []int32

	guides     []*Guide
	routed     int // committed-guide count, maintained by commit/ripUp
	expansions int
	heapPushes int
	ripUps     int
	// scr is the A* scratch every search of the round loop and diagonal
	// refinement reuses across route calls. It is created by the first
	// search (see scratch) and dropped when Run returns: detailed routing,
	// which reads only the sequences, keeps the router alive after Run, and
	// the scratch is the largest thing it owns.
	scr *searchScratch
	// reuse is the round loop's cross-round search memo (reuse.go). Run
	// creates it for the round loop and drops it when the loop ends.
	reuse *reuseState
	// searched, when non-nil, runs after every search that ran, before its
	// guide is committed. Tests use it to inspect the search's scratch.
	searched func(sc *searchScratch)
}

// New creates a router over the graph.
func New(g *rgraph.Graph, opt Options) *Router {
	r := &Router{
		G:        g,
		Opt:      opt.withDefaults(),
		rec:      obs.Or(opt.Rec),
		nodeUse:  make([]int32, len(g.Nodes)),
		linkUse:  make([]int32, len(g.Links)),
		nodeCap:  make([]int32, len(g.Nodes)),
		seqs:     make([][]int, len(g.Nodes)),
		tileBase: make([]int32, len(g.Layers)),
		guides:   make([]*Guide, len(g.Design.Nets)),
	}
	for id := range g.Nodes {
		r.nodeCap[id] = g.Nodes[id].Cap
	}
	var nTiles int32
	for li := range g.Layers {
		r.tileBase[li] = nTiles
		nTiles += int32(len(g.Layers[li].Tiles))
	}
	r.passages = make([][]passage, nTiles)
	return r
}

// seqChunk is the number of entries the sequence slab takes at a time.
const seqChunk = 4096

// growSeq moves a full sequence list into a room of twice its size, or of
// one entry for a list that has none yet, cut from the sequence slab. The
// room is a full three-index slice, so an append can never bleed into a
// neighbour's room.
//
//rdl:noalloc
func (r *Router) growSeq(seq []int) []int {
	room := max(2*cap(seq), 1)
	if len(r.seqSlab) < room {
		//rdl:allow noalloc a new slab chunk is amortized over the seqChunk entries it serves; a route takes a handful
		r.seqSlab = make([]int, max(seqChunk, room))
	}
	grown := r.seqSlab[:len(seq):room]
	r.seqSlab = r.seqSlab[room:]
	copy(grown, seq)
	return grown
}

// edgeUnits returns the capacity units one guide of the net consumes on an
// edge node it crosses: the net's track width times the configured
// per-net usage factor.
func (r *Router) edgeUnits(net int) int {
	return r.G.Design.TrackUnits(net) * r.Opt.EdgeUsePerNet
}

// tileIndex returns the dense index of a tile over all layers, which
// indexes passages and the scratch's per-tile arrays.
//
//rdl:noalloc
func (r *Router) tileIndex(layer, tri int) int32 {
	return r.tileBase[layer] + int32(tri)
}

// scratch returns the A* scratch, creating it on first use.
func (r *Router) scratch() *searchScratch {
	if r.scr == nil {
		r.scr = newSearchScratch(r.G, len(r.passages))
	}
	return r.scr
}

// Run executes the full global-routing flow and returns the guides. When
// ctx is cancelled or expires mid-run, routing stops between nets and Run
// returns the partial result together with ctx.Err(); the work committed so
// far stays valid (the paper's "report the best result so far" semantics).
func (r *Router) Run(ctx context.Context) (*Result, error) {
	span := obs.StartSpan(r.rec, "global")
	defer span.End()

	nets := r.G.Design.Nets
	orderSpan := obs.StartSpan(r.rec, "global.order")
	order := r.initialOrder(ctx)
	orderSpan.End()
	failCount := make([]int, len(nets))

	res := &Result{}
	astarSpan := obs.StartSpan(r.rec, "global.astar")
	progress := r.rec.Enabled()
	var lastFailed []int
	r.reuse = newReuseState(len(nets), len(r.G.Nodes))
	for round := 0; round < r.Opt.MaxOrderRounds; round++ {
		roundSpan := obs.StartSpan(r.rec, "global.round")
		res.OrderRounds = round + 1
		lastFailed = lastFailed[:0]
		r.reuse.beginRound(r.routed == 0)
		stopped := r.routeRoundSerial(ctx, order, failCount, &lastFailed, progress)
		r.rec.Count("global.astar.reused_searches", int64(r.reuse.reused))
		r.rec.Count("global.astar.reused_expansions", int64(r.reuse.reusedExpansions))
		done := stopped || len(lastFailed) == 0 ||
			round == r.Opt.MaxOrderRounds-1 // keep partial result; no rip-up on the last round
		if !done {
			// Net order adjustment (§III-A3c): rip up every guide and move
			// nets with larger failure counts to the front.
			if r.ripUpForNextRound() == 0 {
				// No guide was committed, so the next round would search
				// the same empty state and fail the same way. Stop instead
				// of spinning the rounds out.
				done = true
			} else {
				reorderByFailures(order, failCount)
			}
		}
		roundSpan.End()
		if r.Opt.AfterRound != nil {
			r.Opt.AfterRound(round)
		}
		if done {
			break
		}
	}
	astarSpan.End()
	r.reuse = nil

	if !r.Opt.DisableDiagonalRefinement && !obs.Stopped(ctx) {
		refineSpan := obs.StartSpan(r.rec, "global.refine")
		res.DiagonalReductions = r.refineDiagonal(ctx)
		refineSpan.End()
	}
	r.scr = nil

	res.Guides = append([]*Guide(nil), r.guides...)
	for ni, g := range r.guides {
		if g == nil {
			res.FailedNets = append(res.FailedNets, ni)
		}
	}
	sort.Ints(res.FailedNets)
	res.Expansions = r.expansions
	res.RipUps = r.ripUps

	r.rec.Count("global.astar.expansions", int64(r.expansions))
	r.rec.Count("global.astar.heap_pushes", int64(r.heapPushes))
	r.rec.Count("global.ripups", int64(r.ripUps))
	r.rec.Count("global.order_rounds", int64(res.OrderRounds))
	r.rec.Count("global.refine.reductions", int64(res.DiagonalReductions))
	r.rec.Count("global.nets_routed", int64(len(res.Guides)-len(res.FailedNets)))
	r.rec.Count("global.nets_failed", int64(len(res.FailedNets)))

	if obs.Stopped(ctx) {
		return res, ctx.Err()
	}
	return res, nil
}

// reorderByFailures is the net-order adjustment of §III-A3c: nets with
// larger failure counts move to the front for the next round. The sort is
// stable on purpose — equal-failure nets keep their prior relative order,
// i.e. the initial strategy's order, which is the paper's documented tie
// behavior and what keeps strategy comparisons meaningful across rounds.
func reorderByFailures(order, failCount []int) {
	sort.SliceStable(order, func(a, b int) bool {
		return failCount[order[a]] > failCount[order[b]]
	})
}

// routeRoundSerial routes one ordering round: every pending net in order,
// each searched against the state its predecessors committed.
func (r *Router) routeRoundSerial(ctx context.Context, order, failCount []int,
	lastFailed *[]int, progress bool) (stopped bool) {
	for _, ni := range order {
		if obs.Stopped(ctx) {
			return true
		}
		if r.guides[ni] != nil {
			continue
		}
		r.routeOne(ni, failCount, lastFailed, progress)
	}
	return false
}

// routeOne is the per-net step of the round loop: search (or reuse the
// previous search when nothing it read has changed), fold the work counters,
// then commit or record the failure.
func (r *Router) routeOne(ni int, failCount []int, lastFailed *[]int, progress bool) {
	nets := r.G.Design.Nets
	rs := r.reuse
	var g *searchResult
	if rs.reusable(ni) {
		g = rs.recall(ni)
	} else {
		sc := r.scratch()
		found, err := r.route(sc, nets[ni])
		r.foldSearch(sc, err)
		g = rs.remember(ni, sc, found)
	}
	rs.noteTurn(ni)
	if g == nil {
		failCount[ni]++
		*lastFailed = append(*lastFailed, ni)
		return
	}
	r.commit(g)
	rs.logCommit(ni)
	if r.Opt.AfterEachNet != nil {
		r.Opt.AfterEachNet(r, ni)
	}
	if progress {
		r.rec.Progress("global", r.routed, len(nets))
	}
}

// foldSearch adds a finished search's work counters to the router totals.
// A failed search also reports its cost and cause on the failure counters,
// once per search, so a trace attributes every failure to the round span it
// ran in.
func (r *Router) foldSearch(sc *searchScratch, err error) {
	if r.searched != nil {
		r.searched(sc)
	}
	r.expansions += sc.expansions
	r.heapPushes += sc.heapPushes
	if err != nil {
		r.rec.Count("global.astar.failed_searches", 1)
		r.rec.Count("global.astar.failed_expansions", int64(sc.expansions))
		if sc.revisit {
			r.rec.Count("global.astar.revisit_failures", 1)
		}
	}
}

// commit installs a found guide: bumps usage, inserts sequence positions,
// and records tile passages.
//
//rdl:noalloc
func (r *Router) commit(g *searchResult) {
	//rdl:allow noalloc the Guide header is budget alloc 4 of 4 pinned by TestRouteSearchDoesNotAllocate; it outlives the round
	guide := &Guide{Net: g.net, Nodes: g.nodes, Links: g.links}
	for i, id := range g.nodes {
		if r.G.Node(id).Kind == rgraph.EdgeNode {
			r.nodeUse[id] += int32(r.edgeUnits(g.net))
			gap := g.gaps[i]
			seq := r.seqs[id]
			if gap < 0 || gap > len(seq) {
				gap = len(seq)
			}
			// In-place insertion: a full list first moves to a larger room,
			// so the append stays within the list's room.
			if len(seq) == cap(seq) {
				seq = r.growSeq(seq)
			}
			seq = append(seq, 0)
			copy(seq[gap+1:], seq[gap:])
			seq[gap] = g.net
			r.seqs[id] = seq
		} else {
			r.nodeUse[id]++
		}
	}
	for _, l := range g.links {
		if r.G.Link(l).Kind == rgraph.CrossTile {
			r.linkUse[l] += int32(r.edgeUnits(g.net))
		} else {
			r.linkUse[l]++
		}
	}
	// Record passages per tile for crossing checks.
	for i, l := range g.links {
		link := r.G.Link(l)
		if link.Kind == rgraph.CrossVia {
			continue
		}
		tile := r.G.TileOf(int(link.Layer), int(link.Tile))
		p := passage{net: g.net}
		p.e1 = r.passageEndFor(tile, g.nodes[i])
		p.e2 = r.passageEndFor(tile, g.nodes[i+1])
		ti := r.tileIndex(int(link.Layer), int(link.Tile))
		r.passages[ti] = append(r.passages[ti], p)
	}
	r.guides[g.net] = guide
	r.routed++
}

// passageEndFor converts a path node into a stored passage endpoint within
// the tile.
func (r *Router) passageEndFor(tile *rgraph.Tile, id rgraph.NodeID) passageEnd {
	n := r.G.Node(id)
	if n.Kind == rgraph.ViaNode {
		return passageEnd{vertex: tile.VertexOrdinal(int(n.Vert)), edge: -1}
	}
	return passageEnd{vertex: -1, edge: tile.EdgeOrdinal(id)}
}

// ripUp removes a committed guide, releasing all resources.
//
//rdl:noalloc
func (r *Router) ripUp(guide *Guide) {
	for _, id := range guide.Nodes {
		if r.G.Node(id).Kind == rgraph.EdgeNode {
			r.nodeUse[id] -= int32(r.edgeUnits(guide.Net))
			seq := r.seqs[id]
			for j, n := range seq {
				if n == guide.Net {
					r.seqs[id] = append(seq[:j], seq[j+1:]...)
					break
				}
			}
		} else {
			r.nodeUse[id]--
		}
	}
	for _, l := range guide.Links {
		link := r.G.Link(l)
		if link.Kind == rgraph.CrossTile {
			r.linkUse[l] -= int32(r.edgeUnits(guide.Net))
		} else {
			r.linkUse[l]--
		}
		if link.Kind == rgraph.CrossVia {
			continue
		}
		ti := r.tileIndex(int(link.Layer), int(link.Tile))
		ps := r.passages[ti]
		for j := range ps {
			if ps[j].net == guide.Net {
				r.passages[ti] = append(ps[:j], ps[j+1:]...)
				break
			}
		}
	}
	r.guides[guide.Net] = nil
	r.routed--
	r.ripUps++
}

// ripUpForNextRound removes every committed guide ahead of the next net-order
// adjustment round and returns how many it removed.
func (r *Router) ripUpForNextRound() int {
	ripped := 0
	for _, g := range r.guides {
		if g != nil {
			r.ripUp(g)
			ripped++
		}
	}
	return ripped
}

// GuideLength returns the nominal length of a guide (sum of link lengths).
func (r *Router) GuideLength(g *Guide) float64 {
	var sum float64
	for _, l := range g.Links {
		sum += r.G.Link(l).Len
	}
	return sum
}

// Sequences returns the net-sequence list of an edge node (storage order
// Edge.A→Edge.B). The returned slice is live; callers must not mutate it.
func (r *Router) Sequences(id rgraph.NodeID) []int { return r.seqs[id] }

// Guide returns the currently committed guide of a net, or nil.
func (r *Router) Guide(net int) *Guide {
	if net < 0 || net >= len(r.guides) {
		return nil
	}
	return r.guides[net]
}

// CheckInvariants verifies internal consistency: usage matches the committed
// guides, sequences contain exactly the committed nets, and no capacity is
// exceeded. Intended for tests.
func (r *Router) CheckInvariants() error {
	nodeUse := make([]int, len(r.G.Nodes))
	linkUse := make([]int, len(r.G.Links))
	for _, g := range r.guides {
		if g == nil {
			continue
		}
		for _, id := range g.Nodes {
			if r.G.Node(id).Kind == rgraph.EdgeNode {
				nodeUse[id] += r.edgeUnits(g.Net)
			} else {
				nodeUse[id]++
			}
		}
		for _, l := range g.Links {
			if r.G.Link(l).Kind == rgraph.CrossTile {
				linkUse[l] += r.edgeUnits(g.Net)
			} else {
				linkUse[l]++
			}
		}
	}
	for id := range r.G.Nodes {
		if nodeUse[id] != int(r.nodeUse[id]) {
			return fmt.Errorf("global: node %d usage %d, recomputed %d", id, r.nodeUse[id], nodeUse[id])
		}
		if r.nodeUse[id] > r.nodeCap[id] {
			n := r.G.Node(rgraph.NodeID(id))
			return fmt.Errorf("global: node %d (%v layer %d) over capacity: %d > %d",
				id, n.Kind, n.Layer, r.nodeUse[id], r.nodeCap[id])
		}
		if r.G.Nodes[id].Kind == rgraph.EdgeNode {
			want := 0
			for _, n := range r.seqs[id] {
				if g := r.guides[n]; g == nil || !slices.Contains(g.Nodes, rgraph.NodeID(id)) {
					return fmt.Errorf("global: edge node %d sequence holds net %d, whose guide does not cross it", id, n)
				}
				want += r.edgeUnits(n)
			}
			if want != nodeUse[id] {
				return fmt.Errorf("global: edge node %d sequence units %d, usage %d",
					id, want, nodeUse[id])
			}
		}
	}
	for id := range r.G.Links {
		if linkUse[id] != int(r.linkUse[id]) {
			return fmt.Errorf("global: link %d usage %d, recomputed %d", id, r.linkUse[id], linkUse[id])
		}
		if r.linkUse[id] > r.G.Link(id).Cap {
			return fmt.Errorf("global: link %d over capacity: %d > %d", id, r.linkUse[id], r.G.Link(id).Cap)
		}
	}
	return nil
}

// netPinDist returns the Euclidean pin-to-pin distance of net ni.
func (r *Router) netPinDist(ni int) float64 {
	return r.G.Design.NetHPWL(r.G.Design.Nets[ni])
}
