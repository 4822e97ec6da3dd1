package detail

import (
	"math"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// The detail stage's one answer to "is this geometry legal here?". Polish
// (may a vertex go?) and layer reassignment (may a segment move to another
// layer?) both ask legalIndex, and the DRC spacing scan walks the same
// flatGrid with the same near query and the same indexCell cell rule.
//
// The spatial primitive is a flat CSR-bucketed grid, not a hash map: cells
// are dense array slots indexed by (x + y*nx) over the layer's bounding
// box, bucket membership lives in one items array addressed by a starts
// array, and the "already examined" set of a query is a generation-stamped
// array. Cell coordinates are computed once per endpoint, so the inner
// loops are integer math.

// netSeg is one wire segment of a net on a layer.
type netSeg struct {
	net int
	seg geom.Segment
}

// netVia is one via of a net touching a wire layer.
type netVia struct {
	net int
	pos geom.Point
}

// indexCell returns the grid cell edge of every spatial index in the
// detail stage. Correctness bound: at least every pairwise wire clearance
// and every via-wire limit that can be queried, so a candidate outside the
// ±1-cell walk is provably beyond its limit. The 8×pitch and 50 µm floors
// keep sparse layers from fragmenting into many empty cells; they set the
// cell on every benchmark design.
func indexCell(d *design.Design) float64 {
	maxW := d.Rules.WireWidth
	for i := range d.Nets {
		if w := d.WidthOf(i); w > maxW {
			maxW = w
		}
	}
	wire := maxW + d.Rules.MinSpacing     // ≥ Clearance(a, b) for all pairs
	via := d.Rules.ViaWireClearance(maxW) // ≥ every via-wire limit
	return math.Max(math.Max(wire, via), math.Max(8*d.Rules.Pitch(), 50))
}

// gridScratch is the reusable state of grid builds and queries. A scratch
// belongs to one goroutine (a DRC worker slot or one legalIndex) and
// persists across its builds and queries, so warm ones do not grow the
// heap.
type gridScratch struct {
	// stamp[i] == gen marks item i as already returned by the current
	// query. Clearing is O(1): bump gen.
	stamp []uint32
	gen   uint32
	// cand is the candidate buffer near fills and returns.
	cand []int32
	// counts is the CSR bucket-size buffer for grid builds.
	counts []int32
	// segBuf is the flattened-segment staging buffer grid builds fill from,
	// so the counting passes iterate a plain slice instead of calling back
	// through a func value per segment.
	segBuf []geom.Segment
}

// begin starts a new dedup generation sized for n items.
//
//rdl:noalloc
func (s *gridScratch) begin(n int) {
	// Stale stamps in a reused array are all older than the new gen.
	s.stamp = growSlice(s.stamp, n)
	s.gen++
	if s.gen == 0 { // uint32 wrap: stale stamps could alias, zero-fill once
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
}

// flatGrid is the dense spatial hash of one layer: cell (x, y) with
// 0 ≤ x < nx, 0 ≤ y < ny holds the item indices
// items[starts[y*nx+x]:starts[y*nx+x+1]]. Cells outside the bounding box
// hold nothing by construction, so queries skip them instead of looking
// them up.
type flatGrid struct {
	minX, minY float64
	inv        float64 // 1 / cell edge length
	nx, ny     int
	n          int // items bucketed: indices 0..n-1
	starts     []int32
	items      []int32
}

// cellOf returns p's cell coordinates. The clamp guards the top-edge float
// boundary (a point exactly on the bounding-box maximum) and queries from
// outside the bounding box.
//
//rdl:noalloc
func (g *flatGrid) cellOf(p geom.Point) (int, int) {
	cx := int((p.X - g.minX) * g.inv)
	cy := int((p.Y - g.minY) * g.inv)
	return max(min(cx, g.nx-1), 0), max(min(cy, g.ny-1), 0)
}

// near returns every item bucketed within one cell of s's cell rectangle,
// each once, in walk order (x, then y, then ascending item index within a
// cell). Any item closer to s than one cell edge is among them. The result
// aliases scr and is valid until its next query.
//
//rdl:noalloc
func (g *flatGrid) near(s geom.Segment, scr *gridScratch) []int32 {
	out := scr.cand[:0]
	if len(g.items) > 0 {
		scr.begin(g.n)
		x0, y0 := g.cellOf(s.A)
		x1, y1 := g.cellOf(s.B)
		for x := max(min(x0, x1)-1, 0); x <= min(max(x0, x1)+1, g.nx-1); x++ {
			for y := max(min(y0, y1)-1, 0); y <= min(max(y0, y1)+1, g.ny-1); y++ {
				c := y*g.nx + x
				for _, i := range g.items[g.starts[c]:g.starts[c+1]] {
					if scr.stamp[i] != scr.gen {
						scr.stamp[i] = scr.gen
						out = append(out, i)
					}
				}
			}
		}
	}
	scr.cand = out
	return out
}

// fill (re)builds the grid over the segments in two counting passes, reusing
// the grid's starts/items backing arrays and the scratch's counts buffer,
// so warm refills over same-or-smaller geometry do not allocate. Bucket
// contents come out in ascending segment-index order. A segment is indexed
// into the full cell rectangle spanned by its endpoints, a superset of the
// cells it passes through, so near is exhaustive for distances up to one
// cell edge.
//
//rdl:noalloc
func (g *flatGrid) fill(segs []geom.Segment, cell float64, scr *gridScratch) {
	n := len(segs)
	g.n = n
	if n == 0 {
		g.nx, g.ny = 0, 0
		g.starts, g.items = g.starts[:0], g.items[:0]
		return
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i := 0; i < n; i++ {
		s := segs[i]
		minX = math.Min(minX, math.Min(s.A.X, s.B.X))
		minY = math.Min(minY, math.Min(s.A.Y, s.B.Y))
		maxX = math.Max(maxX, math.Max(s.A.X, s.B.X))
		maxY = math.Max(maxY, math.Max(s.A.Y, s.B.Y))
	}
	g.minX, g.minY = minX, minY
	g.inv = 1 / cell
	g.nx = int((maxX-minX)*g.inv) + 1
	g.ny = int((maxY-minY)*g.inv) + 1
	ncells := g.nx * g.ny

	counts := scr.counts
	if cap(counts) < ncells {
		//rdl:allow noalloc counts growth is amortized setup: it happens only when a layer's cell count exceeds every earlier one, never in warm refills
		counts = make([]int32, ncells)
	}
	counts = counts[:ncells]
	for i := range counts {
		counts[i] = 0
	}
	scr.counts = counts

	// Pass 1: bucket sizes.
	total := 0
	for i := 0; i < n; i++ {
		s := segs[i]
		x0, y0 := g.cellOf(s.A)
		x1, y1 := g.cellOf(s.B)
		for x := min(x0, x1); x <= max(x0, x1); x++ {
			for y := min(y0, y1); y <= max(y0, y1); y++ {
				counts[y*g.nx+x]++
				total++
			}
		}
	}
	// Prefix-sum into starts; cursor reuses counts.
	g.starts = growSlice(g.starts, ncells+1)
	run := int32(0)
	for c := 0; c < ncells; c++ {
		g.starts[c] = run
		run += counts[c]
		counts[c] = g.starts[c] // cursor for pass 2
	}
	g.starts[ncells] = run

	// Pass 2: fill in ascending segment-index order.
	g.items = growSlice(g.items, total)
	for i := 0; i < n; i++ {
		s := segs[i]
		x0, y0 := g.cellOf(s.A)
		x1, y1 := g.cellOf(s.B)
		for x := min(x0, x1); x <= max(x0, x1); x++ {
			for y := min(y0, y1); y <= max(y0, y1); y++ {
				c := y*g.nx + x
				g.items[counts[c]] = int32(i)
				counts[c]++
			}
		}
	}
}

// fillNetSegs and fillNetVias stage a typed view into the scratch's segBuf
// (vias index as degenerate segments) and rebuild the grid from it.
//
//rdl:noalloc
func (g *flatGrid) fillNetSegs(segs []netSeg, cell float64, scr *gridScratch) {
	buf := growSlice(scr.segBuf, len(segs))
	for i := range segs {
		buf[i] = segs[i].seg
	}
	scr.segBuf = buf
	g.fill(buf, cell, scr)
}

//rdl:noalloc
func (g *flatGrid) fillNetVias(vias []netVia, cell float64, scr *gridScratch) {
	buf := growSlice(scr.segBuf, len(vias))
	for i := range vias {
		buf[i] = geom.Seg(vias[i].pos, vias[i].pos)
	}
	scr.segBuf = buf
	g.fill(buf, cell, scr)
}

// appendLayerSegs appends every segment the routes place on layer, in
// route order.
//
//rdl:noalloc
func appendLayerSegs(dst []netSeg, routes []*Route, layer int) []netSeg {
	for _, rt := range routes {
		if rt == nil {
			continue
		}
		for _, s := range rt.Segs {
			if s.Layer != layer {
				continue
			}
			pl := s.Pl
			for i := 1; i < len(pl); i++ {
				dst = append(dst, netSeg{rt.Net, geom.Seg(pl[i-1], pl[i])})
			}
		}
	}
	return dst
}

// legalIndex holds, per wire layer, the current segments of every route
// and the vias touching the layer, each bucketed by a flatGrid, and
// answers whether a candidate segment may sit on a layer. The post-assembly
// passes keep it current as they accept edits: reassignment rebuilds the
// layers a fold touches, and polish updates a layer in place (replace).
type legalIndex struct {
	d    *design.Design
	cell float64
	// segs[layer] and vias[layer] are the per-layer views; via layer k
	// touches wire layers k and k+1. The layer's grid buckets the first
	// segGrids[layer].n entries of segs[layer]; the rest are the tail
	// replace appends, which legal scans in full. An entry with net -1 is
	// dead: replace removed it.
	segs     [][]netSeg
	vias     [][]netVia
	segGrids []flatGrid
	viaGrids []flatGrid
	scr      gridScratch
}

// newLegalIndex builds the index over the routes. Each layer's segment view
// is sized once, with room for the longest tail replace lets grow and one
// more polyline, so replace never reallocates it while polylines do not
// grow.
func newLegalIndex(routes []*Route, d *design.Design) *legalIndex {
	x := &legalIndex{
		d: d, cell: indexCell(d),
		segs:     make([][]netSeg, d.WireLayers),
		vias:     make([][]netVia, d.WireLayers),
		segGrids: make([]flatGrid, d.WireLayers),
		viaGrids: make([]flatGrid, d.WireLayers),
	}
	// Counting pass so the per-layer views are built with exactly one
	// allocation each.
	segN := make([]int, d.WireLayers)
	viaN := make([]int, d.WireLayers)
	longest := 0
	for _, rt := range routes {
		if rt == nil {
			continue
		}
		for _, s := range rt.Segs {
			if n := len(s.Pl) - 1; n > 0 {
				segN[s.Layer] += n
				longest = max(longest, n)
			}
		}
		for _, v := range rt.Vias {
			viaN[v.Layer]++
			viaN[v.Layer+1]++
		}
	}
	for l := range x.segs {
		x.segs[l] = make([]netSeg, 0, segN[l]+tailLimit(segN[l])+longest)
		x.vias[l] = make([]netVia, 0, viaN[l])
		x.refreshSegs(routes, l)
	}
	x.refreshVias(routes)
	return x
}

// tailLimit is the longest tail replace keeps beside a grid of bucketed
// entries before it rebuilds the layer: the linear scan it adds to each
// query stays a small fraction of the layer.
//
//rdl:noalloc
func tailLimit(bucketed int) int { return 64 + bucketed/16 }

// refreshSegs rebuilds one layer's segment view and its grid from the
// routes, leaving no tail and no dead entry.
//
//rdl:noalloc
func (x *legalIndex) refreshSegs(routes []*Route, layer int) {
	x.segs[layer] = appendLayerSegs(x.segs[layer][:0], routes, layer)
	x.segGrids[layer].fillNetSegs(x.segs[layer], x.cell, &x.scr)
}

// replace updates layer's view after net's polyline old was replaced by cur
// in routes, and reports whether it rebuilt the layer. The first run of
// live entries holding old's segments dies in place (two equal runs are
// interchangeable), and cur's segments join the tail, so the live entries
// are exactly those refreshSegs would build. Once the tail outgrows
// tailLimit, the layer is rebuilt from routes. cur may be longer than old.
//
//rdl:noalloc
func (x *legalIndex) replace(routes []*Route, layer, net int, old, cur geom.Polyline) bool {
	segs := x.segs[layer]
	if i := findRun(segs, net, old); i >= 0 {
		for k := i; k < i+len(old)-1; k++ {
			segs[k].net = -1
		}
	}
	for i := 1; i < len(cur); i++ {
		segs = append(segs, netSeg{net, geom.Seg(cur[i-1], cur[i])})
	}
	x.segs[layer] = segs
	if n := x.segGrids[layer].n; len(segs)-n <= tailLimit(n) {
		return false
	}
	x.refreshSegs(routes, layer)
	return true
}

// findRun returns the index of the first run of entries of segs holding
// net's segments of pl in order, or -1 when there is none. Dead entries
// match no net.
//
//rdl:noalloc
func findRun(segs []netSeg, net int, pl geom.Polyline) int {
	n := len(pl) - 1
	for i := 0; i+n <= len(segs); i++ {
		k := 0
		for k < n && segs[i+k].net == net && segs[i+k].seg == geom.Seg(pl[k], pl[k+1]) {
			k++
		}
		if k == n {
			return i
		}
	}
	return -1
}

// refreshVias rebuilds the via view and via grid of every layer.
//
//rdl:noalloc
func (x *legalIndex) refreshVias(routes []*Route) {
	for l := range x.vias {
		x.vias[l] = x.vias[l][:0]
	}
	for _, rt := range routes {
		if rt == nil {
			continue
		}
		for _, v := range rt.Vias {
			x.vias[v.Layer] = append(x.vias[v.Layer], netVia{rt.Net, v.Pos})
			x.vias[v.Layer+1] = append(x.vias[v.Layer+1], netVia{rt.Net, v.Pos})
		}
	}
	for l := range x.vias {
		x.viaGrids[l].fillNetVias(x.vias[l], x.cell, &x.scr)
	}
}

// legalEps is the tolerance of every limit legal checks.
const legalEps = 1e-9

// legal reports whether segment s of net may sit on layer: outside every
// keep-out, then clear of every other net's wires by their pairwise
// clearance, then clear of every other net's vias by the via-wire limit.
//
// Strict mode (relaxed false) is the rule for geometry new to the layer:
// any shortfall vetoes. Relaxed mode is the rule for a chord replacing
// the segments o1 and o2 of the same polyline: a wire or via already
// closer than its limit may stay that close, so it vetoes only when s
// comes closer to it than both replaced segments did. o1 and o2 are
// ignored in strict mode.
//
// A wire vetoes by a test of the query and that wire alone, so the verdict
// does not depend on the order in which wires are checked. The grid yields
// every bucketed wire within reach, and the tail is checked in full.
//
//rdl:noalloc
func (x *legalIndex) legal(s geom.Segment, layer, net int, relaxed bool, o1, o2 geom.Segment) bool {
	if x.d.SegmentBlocked(s, layer, 0) {
		return false
	}
	segs, n := x.segs[layer], x.segGrids[layer].n
	for _, i := range x.segGrids[layer].near(s, &x.scr) {
		if !x.wireOK(s, net, relaxed, o1, o2, &segs[i]) {
			return false
		}
	}
	for i := n; i < len(segs); i++ {
		if !x.wireOK(s, net, relaxed, o1, o2, &segs[i]) {
			return false
		}
	}
	viaLimit := x.d.Rules.ViaWireClearance(x.d.WidthOf(net))
	vias := x.vias[layer]
	for _, i := range x.viaGrids[layer].near(s, &x.scr) {
		v := &vias[i]
		if x.d.SameGroup(v.net, net) {
			continue
		}
		if d := s.DistToPoint(v.pos); d < viaLimit-legalEps {
			if !relaxed || d < math.Min(o1.DistToPoint(v.pos), o2.DistToPoint(v.pos))-legalEps {
				return false
			}
		}
	}
	return true
}

// wireOK reports whether wire e lets segment s of net stand, by legal's
// wire rule. A dead entry and a wire of s's own net always do.
//
//rdl:noalloc
func (x *legalIndex) wireOK(s geom.Segment, net int, relaxed bool, o1, o2 geom.Segment, e *netSeg) bool {
	if e.net < 0 || x.d.SameGroup(e.net, net) {
		return true
	}
	if d, _, _ := s.DistToSegment(e.seg); d < x.d.Clearance(net, e.net)-legalEps {
		if !relaxed {
			return false
		}
		d1, _, _ := o1.DistToSegment(e.seg)
		d2, _, _ := o2.DistToSegment(e.seg)
		if d < math.Min(d1, d2)-legalEps {
			return false
		}
	}
	return true
}
