package global

import (
	"context"
	"math"
	"sort"

	"rdlroute/internal/geom"
	"rdlroute/internal/obs"
	"rdlroute/internal/pool"
	"rdlroute/internal/portfolio"
	"rdlroute/internal/pq"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/viaplan"
)

// Initial net ordering (§III-A2): every net is first routed alone on the
// empty graph; a RUDY-like wire density is accumulated on the tiles each
// standalone guide passes; the per-net features (over-threshold tile counts,
// pin-to-pin distances, congested-tile conflicts) feed a portfolio.Model,
// and the configured ordering strategy — the paper's RUDY policy by
// default — turns the model into the routing order.

// congestionThreshold is the RUDY density above which a tile counts as
// congested: the paper's user-defined threshold.
const congestionThreshold = 0.5

// initialOrder returns the net indices in routing order. A cancelled ctx
// degrades gracefully: standalone seed routes not yet computed are skipped
// and the ordering falls back toward netlist order for the remainder.
func (r *Router) initialOrder(ctx context.Context) []int {
	n := len(r.G.Design.Nets)
	if r.Opt.DisableRUDYOrder {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order
	}
	m := r.orderModel(ctx)
	strat := r.Opt.Order
	if strat == nil {
		// Legacy path: portfolio.RUDY is the verbatim extraction of the
		// comparator that used to live here, so this is byte-identical to
		// the pre-portfolio sort.
		strat = portfolio.RUDY{}
	}
	order := strat.Order(ctx, m)
	if !portfolio.ValidOrder(order, n) {
		// A broken external strategy must not corrupt routing: fall back to
		// the paper's policy rather than route a non-permutation.
		order = portfolio.RUDY{}.Order(ctx, m)
	}
	return order
}

// orderModel routes every net alone, accumulates the RUDY density of the
// standalone guides and returns the feature model the ordering strategy
// reads. The conflict pairs are built only for a configured strategy; RUDY
// never reads them.
func (r *Router) orderModel(ctx context.Context) *portfolio.Model {
	n := len(r.G.Design.Nets)

	// Standalone guides, computed in parallel through the shared
	// deterministic pool: each net's seed route ignores every other net, so
	// the searches are independent and paths[ni] depends only on net ni.
	// Each pool worker creates one scratch on its first chunk and reuses it
	// for every later chunk it claims; a scratch carries no result state, so
	// the paths are the same at every worker count.
	paths := make([]*plainPath, n)
	const orderChunk = 16
	workers := r.Opt.parallelism()
	scratches := make([]*plainScratch, workers)
	var units []func(worker int) struct{}
	for lo := 0; lo < n; lo += orderChunk {
		lo, hi := lo, lo+orderChunk
		if hi > n {
			hi = n
		}
		units = append(units, func(worker int) struct{} {
			scr := scratches[worker]
			if scr == nil {
				scr = newPlainScratch(r.G)
				scratches[worker] = scr
			}
			for ni := lo; ni < hi; ni++ {
				if obs.Stopped(ctx) {
					return struct{}{}
				}
				paths[ni] = r.routePlain(ni, scr)
			}
			return struct{}{}
		})
	}
	pool.RunWith(units, workers)

	// RUDY accumulation, keeping each net's tile footprint for the
	// congestion features below.
	predTiles := make([][]tileKey, n)
	density := make(map[tileKey]float64)
	area := make(map[tileKey]float64)
	pitch := r.G.Design.Rules.Pitch()
	for ni := range r.G.Design.Nets {
		path := paths[ni]
		if path == nil {
			continue
		}
		for i := 0; i+1 < len(path.nodes); i++ {
			link := r.G.Link(path.links[i])
			if link.Kind == rgraph.CrossVia {
				continue
			}
			key := tileKey{int(link.Layer), int(link.Tile)}
			if _, ok := area[key]; !ok {
				area[key] = r.tileArea(key)
			}
			chord := r.G.Node(path.nodes[i]).Pos.Dist(r.G.Node(path.nodes[i+1]).Pos)
			density[key] += chord * pitch / area[key]
			predTiles[ni] = append(predTiles[ni], key)
		}
	}

	congested := make([]int, n)
	for ni, tiles := range predTiles {
		for _, key := range tiles {
			if density[key] > congestionThreshold {
				congested[ni]++
			}
		}
	}

	m := &portfolio.Model{Nets: n, Congested: congested, PinDist: make([]float64, n)}
	for ni := range m.PinDist {
		m.PinDist[ni] = r.netPinDist(ni)
	}
	if r.Opt.Order != nil {
		m.Conflicts = r.conflictPairs(predTiles, density)
	}
	return m
}

// conflictPairs lists net pairs whose standalone seed paths (predTiles, the
// per-net tile footprints) share congested tiles, sorted by (A, B).
// Per-tile net lists are built in ascending net order (so A < B holds by
// construction) and capped: a pathological tile crossed by hundreds of seed
// paths would otherwise cost O(k²) pairs while adding no ordering signal
// beyond its first couple dozen nets.
func (r *Router) conflictPairs(predTiles [][]tileKey, density map[tileKey]float64) []portfolio.Conflict {
	const maxTileNets = 24
	tileNets := make(map[tileKey][]int)
	seen := make(map[tileKey]struct{})
	for ni, tiles := range predTiles {
		clear(seen)
		for _, key := range tiles {
			if density[key] <= congestionThreshold {
				continue
			}
			if _, ok := seen[key]; ok {
				continue
			}
			seen[key] = struct{}{}
			if nets := tileNets[key]; len(nets) < maxTileNets {
				tileNets[key] = append(nets, ni)
			}
		}
	}
	pairs := make(map[[2]int]int)
	for _, nets := range tileNets {
		for i := 0; i < len(nets); i++ {
			for j := i + 1; j < len(nets); j++ {
				pairs[[2]int{nets[i], nets[j]}]++
			}
		}
	}
	out := make([]portfolio.Conflict, 0, len(pairs))
	for p, shared := range pairs {
		out = append(out, portfolio.Conflict{A: p[0], B: p[1], Shared: shared})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].A != out[b].A {
			return out[a].A < out[b].A
		}
		return out[a].B < out[b].B
	})
	return out
}

// tileArea returns the area of a tile.
func (r *Router) tileArea(key tileKey) float64 {
	mesh := r.G.Layers[key.layer].Mesh
	tri := mesh.Tris[key.tri]
	a := math.Abs(geom.SignedArea2(mesh.Points[tri.V[0]], mesh.Points[tri.V[1]], mesh.Points[tri.V[2]])) / 2
	if a <= 0 {
		return 1
	}
	return a
}

// plainPath is a capacity-agnostic standalone route.
type plainPath struct {
	nodes []rgraph.NodeID
	links []int
}

type plainState struct {
	node      rgraph.NodeID
	viaArrive bool
}

type plainItem struct {
	st     plainState
	g      float64
	parent int
	link   int
}

// plainScratch holds the reusable buffers of one standalone-route worker:
// a dense best-cost scoreboard over the 2·|nodes| plain states (generation
// counter instead of per-search clearing), the item arena, and a typed open
// list. One scratch serves every net a worker claims.
type plainScratch struct {
	bestG   []float64
	bestGen []uint32
	gen     uint32
	arena   []plainItem
	open    pq.Heap[int32] // arena indices keyed by f
}

func newPlainScratch(g *rgraph.Graph) *plainScratch {
	return &plainScratch{
		bestG:   make([]float64, 2*len(g.Nodes)),
		bestGen: make([]uint32, 2*len(g.Nodes)),
	}
}

// plainSlot maps a plain state to its scoreboard slot.
func plainSlot(st plainState) int {
	i := int(st.node) * 2
	if st.viaArrive {
		i++
	}
	return i
}

// begin starts a fresh search on the reused buffers.
func (s *plainScratch) begin() {
	s.gen++
	if s.gen == 0 { // uint32 wraparound: stale stamps would alias as current
		for i := range s.bestGen {
			s.bestGen[i] = 0
		}
		s.gen = 1
	}
	s.arena = s.arena[:0]
	s.open.Reset()
}

// routePlain finds the shortest structural path for one net, ignoring other
// nets entirely (no usage, no sequences); only structural capacities
// (cap > 0) gate traversal. Used for RUDY estimation. Returns nil when no
// path exists at all.
func (r *Router) routePlain(ni int, s *plainScratch) *plainPath {
	net := r.G.Design.Nets[ni]
	src, dst, err := r.G.NetPins(net)
	if err != nil {
		return nil
	}
	dstPos := r.G.Node(dst).Pos

	s.begin()
	push := func(st plainState, g float64, parent, link int) {
		slot := plainSlot(st)
		if s.bestGen[slot] == s.gen && s.bestG[slot] <= g {
			return
		}
		s.bestGen[slot] = s.gen
		s.bestG[slot] = g
		f := g + r.G.Node(st.node).Pos.Dist(dstPos)
		s.arena = append(s.arena, plainItem{st: st, g: g, parent: parent, link: link})
		s.open.Push(f, int32(len(s.arena)-1))
	}
	push(plainState{node: src}, 0, -1, -1)

	for s.open.Len() > 0 {
		si := int(s.open.Pop())
		it := s.arena[si]
		if it.g > s.bestG[plainSlot(it.st)] {
			continue
		}
		if it.st.node == dst {
			var nodes []rgraph.NodeID
			var links []int
			for i := si; i != -1; i = s.arena[i].parent {
				nodes = append(nodes, s.arena[i].st.node)
				if s.arena[i].link != -1 {
					links = append(links, s.arena[i].link)
				}
			}
			for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
				nodes[i], nodes[j] = nodes[j], nodes[i]
			}
			for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
				links[i], links[j] = links[j], links[i]
			}
			return &plainPath{nodes: nodes, links: links}
		}
		node := r.G.Node(it.st.node)
		for _, adj := range r.G.Neighbors(it.st.node) {
			link := r.G.Link(int(adj.Link))
			to := r.G.Node(adj.To)
			if to.Cap <= 0 && adj.To != dst {
				continue
			}
			if node.Kind == rgraph.ViaNode && it.link != -1 {
				// Same leave-kind restriction as the real search.
				if it.st.viaArrive && link.Kind == rgraph.CrossVia {
					continue
				}
				if !it.st.viaArrive && link.Kind != rgraph.CrossVia {
					continue
				}
			}
			// A wire never enters a pin that is not its own target.
			if to.Kind == rgraph.ViaNode && to.VertKind == viaplan.KindPin &&
				adj.To != dst && adj.To != src &&
				!r.G.Design.SameGroup(r.G.Design.IOPads[to.Ref].Net, ni) {
				continue
			}
			push(plainState{node: adj.To, viaArrive: link.Kind == rgraph.CrossVia},
				it.g+link.Len, si, int(adj.Link))
		}
	}
	return nil
}
