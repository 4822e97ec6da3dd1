package detail

import (
	"context"
	"slices"
	"sync/atomic"

	"rdlroute/internal/dt"
	"rdlroute/internal/geom"
	"rdlroute/internal/global"
	"rdlroute/internal/obs"
	"rdlroute/internal/pool"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/viaplan"
)

// Tile routing (§III-B2).
//
// Within each tile the guides become geometry: every consecutive chain pair
// whose link lies in the tile is a passage between two boundary points.
// Passages are grouped by the tile corner they wrap (cross-tile passages) or
// start from (access-via passages), corners are processed in a fixed
// clockwise order, and within each corner passages route from innermost to
// outermost. Fit routing resolves spacing violations against already-routed
// wires by the tangent-line construction of Fig. 12: find the constraint
// circle at the violating point, replace the straight segment by the two
// tangents through source and target, iterate.
//
// Jobs are prepared once per run: access points are frozen after the DP
// adjustment, so passage endpoints, stub inner ends, corner order, metal
// corners and access-point obstacles are fixed before tile routing starts
// and live on the job. Each job also owns the scratch buffers its tile
// routing mutates (fit/full polylines, routed list, per-passage route
// buffers); a job is executed by exactly one worker at a time, and a
// passage allocates nothing once those scratches are grown.

// tilePassage is one chain hop to be realized inside a tile.
type tilePassage struct {
	net      int
	chainIdx int // index of the first of the two chain elements
	corner   int // mesh vertex index the passage wraps / starts at, or -1
	// cornerDist orders passages within their corner group, innermost
	// first.
	cornerDist float64
	// Geometry frozen at preparation time: the chain endpoint positions,
	// the perpendicular stub inner ends, and the reference point the fit
	// detour bulges away from.
	a, b   geom.Point
	ia, ib geom.Point
	ref    geom.Point
	// route is the passage's output polyline, read by assemble through
	// the hop index.
	route  geom.Polyline
	failed bool
}

// tileJob collects the passages of one tile plus the tile's prepared
// read-only geometry and the scratch state tile routing reuses.
type tileJob struct {
	key      tileKeyD
	passages []*tilePassage
	// Prepared once: the tile triangle, the corners that carry metal, and
	// every passage's fixed access points as net-sorted obstacles.
	tri     [3]geom.Point
	corners []geom.Point
	apObs   []netPoints
	// Scratches owned by the job.
	routed  []*tilePassage
	fitBuf  geom.Polyline
	fullBuf geom.Polyline
}

type tileKeyD struct{ layer, tri int }

// netPoints pairs a net with obstacle points, in deterministic slices.
type netPoints struct {
	net int
	pts []geom.Point
}

// buildTileJobs groups every non-via guide link into its tile's job, in
// canonical (layer, tri) order, prepares each job's frozen geometry, and
// sizes the flat hop index assemble reads routed polylines from. Called
// once per run, after the access points have been placed.
func (d *Detailer) buildTileJobs() {
	jobs := make(map[tileKeyD]*tileJob)
	for net, ch := range d.Chains {
		if ch == nil {
			continue
		}
		guide := d.guideOf(net)
		if guide == nil {
			continue
		}
		for i, l := range guide.Links {
			link := d.G.Link(l)
			if link.Kind == rgraph.CrossVia {
				continue
			}
			key := tileKeyD{int(link.Layer), int(link.Tile)}
			job := jobs[key]
			if job == nil {
				job = &tileJob{key: key}
				jobs[key] = job
			}
			job.passages = append(job.passages, &tilePassage{net: net, chainIdx: i, corner: int(link.Corner)})
		}
	}
	// Deterministic tile order.
	keys := make([]tileKeyD, 0, len(jobs))
	for k := range jobs {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b tileKeyD) int {
		if a.layer != b.layer {
			return a.layer - b.layer
		}
		return a.tri - b.tri
	})
	d.tileJobs = make([]*tileJob, len(keys))
	for i, k := range keys {
		d.tileJobs[i] = jobs[k]
		d.prepTileJob(jobs[k])
	}

	// Flat (net, chainIdx) → polyline index: chain i owns the hop slots
	// hopOff[i] .. hopOff[i+1]-1.
	d.hopOff = make([]int32, len(d.Chains)+1)
	for net, ch := range d.Chains {
		n := 0
		if ch != nil && len(ch.Elems) > 1 {
			n = len(ch.Elems) - 1
		}
		d.hopOff[net+1] = d.hopOff[net] + int32(n)
	}
	d.hopPl = make([]geom.Polyline, d.hopOff[len(d.Chains)])
}

// hopAt returns the routed polyline of one chain hop (empty when the tile
// was never reached, e.g. after cancellation).
//
//rdl:noalloc
func (d *Detailer) hopAt(net, i int) geom.Polyline {
	return d.hopPl[d.hopOff[net]+int32(i)]
}

// prepTileJob computes everything about a job that tile routing reads but
// does not change: passage endpoints and processing order, metal corners,
// access-point obstacles, stub inner ends and reference points.
func (d *Detailer) prepTileJob(job *tileJob) {
	tile := d.G.TileOf(job.key.layer, job.key.tri)
	mesh := d.G.Layers[job.key.layer].Mesh

	// Endpoint positions for each passage.
	for _, p := range job.passages {
		ch := d.Chains[p.net]
		p.a = d.ElemPos(ch.Elems[p.chainIdx])
		p.b = d.ElemPos(ch.Elems[p.chainIdx+1])
		if p.corner >= 0 {
			c := mesh.Points[p.corner]
			p.cornerDist = p.a.Dist(c) + p.b.Dist(c)
		}
	}
	// Order: group by corner, corners in clockwise order (descending vertex
	// ordinal works on CCW triangles), innermost passage first. Insertion
	// sort: stable like the sort.SliceStable it replaces (so the result is
	// byte-identical), without the reflect-based swapper allocation, and the
	// per-tile passage lists are short.
	before := func(pi, pj *tilePassage) bool {
		oi := tile.VertexOrdinal(pi.corner)
		oj := tile.VertexOrdinal(pj.corner)
		if oi != oj {
			return oi > oj // clockwise corner order on a CCW triangle
		}
		return pi.cornerDist < pj.cornerDist
	}
	ps := job.passages
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && before(ps[j], ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}

	// Hard obstacles: the tile's corner vertices that carry metal (vias,
	// pins, bumps). fitRoute sizes each one's disc by the passing wire's
	// via-wire clearance.
	for i := 0; i < 3; i++ {
		vn := d.G.Node(tile.ViaNodes[i])
		if vn.VertKind == viaplan.KindDummy {
			continue
		}
		job.corners = append(job.corners, mesh.Points[tile.Verts[i]])
	}
	// Soft obstacles: every passage's access points. Earlier-routed wires
	// must keep clearance from later passages' fixed entry points, or those
	// passages start inside a violation they cannot resolve. Kept as a
	// net-sorted slice so the violation resolution order — and with it the
	// exact geometry — is deterministic.
	apByNet := make(map[int][]geom.Point)
	for _, p := range job.passages {
		ch := d.Chains[p.net]
		for _, ei := range []int{p.chainIdx, p.chainIdx + 1} {
			if ch.Elems[ei].Kind != ElemAP {
				continue
			}
			apByNet[p.net] = append(apByNet[p.net], d.ElemPos(ch.Elems[ei]))
		}
	}
	apNets := make([]int, 0, len(apByNet))
	for net := range apByNet {
		apNets = append(apNets, net)
	}
	slices.Sort(apNets)
	job.apObs = make([]netPoints, 0, len(apNets))
	for _, net := range apNets {
		job.apObs = append(job.apObs, netPoints{net: net, pts: apByNet[net]})
	}

	job.tri = [3]geom.Point{
		mesh.Points[tile.Verts[0]],
		mesh.Points[tile.Verts[1]],
		mesh.Points[tile.Verts[2]],
	}
	// Stub ends and reference points.
	for _, p := range job.passages {
		p.ref = d.refPoint(tile, mesh, p)
		// The 3-segment pattern: through-traffic enters and leaves the tile
		// perpendicular to the tile edge so that adjacent access points at
		// pitch spacing along the edge keep full wire clearance where the
		// wires cross the edge, regardless of the chord's obliqueness.
		// Tight corner wraps skip the stub (a perpendicular entry would
		// force a >90° turn); their clearance comes from the fit
		// construction instead.
		p.ia = d.stubEnd(tile, mesh, p, p.chainIdx, p.a, p.b)
		p.ib = d.stubEnd(tile, mesh, p, p.chainIdx+1, p.b, p.a)
	}
}

// routeTiles performs tile routing over all tiles and stores the resulting
// polylines into the flat hop index, returning the failed passages.
// Cancelling ctx stops between tiles; unreached passages keep empty routes,
// which assemble replaces with straight hops.
func (d *Detailer) routeTiles(ctx context.Context) []*tilePassage {
	// One unit per tile: routeOneTile touches only its own job, and the
	// shared Detailer state it reads — chains, access points, graph, rules —
	// is frozen during tile routing, so tiles fan out freely across the
	// pool. The merge below walks the jobs in their canonical order, making
	// the hop index contents and the failure list independent of the pool
	// size; a cancelled context skips un-started tiles, whose passages keep
	// empty routes exactly like the serial path.
	if workers := d.Opt.workers(); workers <= 1 {
		for _, job := range d.tileJobs {
			if !obs.Stopped(ctx) {
				d.routeOneTile(job)
			}
		}
	} else {
		units := make([]func() struct{}, len(d.tileJobs))
		for i, job := range d.tileJobs {
			job := job
			units[i] = func() struct{} {
				if !obs.Stopped(ctx) {
					d.routeOneTile(job)
				}
				return struct{}{}
			}
		}
		pool.Run(units, workers)
	}

	failures := d.failBuf[:0]
	for _, job := range d.tileJobs {
		for _, p := range job.passages {
			d.hopPl[d.hopOff[p.net]+int32(p.chainIdx)] = p.route
			if p.failed {
				failures = append(failures, p)
			}
		}
	}
	d.failBuf = failures
	return failures
}

// guideOf returns the committed guide of a net (or nil).
func (d *Detailer) guideOf(net int) *global.Guide {
	return d.guides[net]
}

// routeOneTile routes all passages of one tile into their route buffers.
//
//rdl:noalloc
func (d *Detailer) routeOneTile(job *tileJob) {
	routed := job.routed[:0]
	for _, p := range job.passages {
		mid := d.fitRoute(job, p, routed)
		full := job.fullBuf[:0]
		if !p.ia.ApproxEq(p.a) {
			full = append(full, p.a)
		}
		full = append(full, mid...)
		if !p.ib.ApproxEq(p.b) {
			full = append(full, p.b)
		}
		job.fullBuf = full
		full = full.SimplifyInPlace()
		p.route = append(p.route[:0], full...)
		routed = append(routed, p)
	}
	job.routed = routed
}

// stubEnd returns the inner end of the perpendicular entry stub for the
// chain element at elemIdx of the passage's net, or the element position
// itself when the element is not an access point (vias and pins fan out
// freely), when the perpendicular entry would force a sharp turn toward the
// passage's other endpoint, or when the stub would leave the tile.
func (d *Detailer) stubEnd(tile *rgraph.Tile, mesh *dt.Mesh, p *tilePassage, elemIdx int, pos, other geom.Point) geom.Point {
	ch := d.Chains[p.net]
	el := ch.Elems[elemIdx]
	if el.Kind != ElemAP {
		return pos
	}
	// Inward normal: perpendicular to the edge, toward the opposite vertex.
	ord := tile.EdgeOrdinal(el.Node)
	if ord == -1 {
		return pos
	}
	opp := mesh.Points[tile.Verts[(ord+2)%3]]
	endA, endB := d.G.EdgeEnds(el.Node)
	n := endB.Sub(endA).Perp().Unit()
	if n.Dot(opp.Sub(endA)) < 0 {
		n = n.Scale(-1)
	}
	// Through-traffic only: the continuation toward the other endpoint must
	// not turn more than ~75° after the perpendicular entry.
	chord := other.Sub(pos)
	if chord.Norm() == 0 {
		return pos
	}
	cos := n.Dot(chord.Unit())
	if cos < 0.26 { // angle(n, chord) > ~75°
		return pos
	}
	s := d.G.Design.Rules.Pitch()
	for try := 0; try < 4; try++ {
		cand := pos.Add(n.Scale(s))
		if geom.PointInTriangle(cand,
			mesh.Points[tile.Verts[0]], mesh.Points[tile.Verts[1]], mesh.Points[tile.Verts[2]]) {
			return cand
		}
		s /= 2
	}
	return pos
}

// refPoint picks the reference the detour must bulge away from: the wrapped
// corner when there is one, otherwise the tile centroid.
func (d *Detailer) refPoint(tile *rgraph.Tile, mesh *dt.Mesh, p *tilePassage) geom.Point {
	if p.corner >= 0 {
		return mesh.Points[p.corner]
	}
	return geom.Centroid(mesh.Points[tile.Verts[0]], mesh.Points[tile.Verts[1]], mesh.Points[tile.Verts[2]])
}

// maxFitIters bounds the tangent-construction iterations per passage.
const maxFitIters = 48

// fitRoute builds the polyline for one passage between the stub inner ends
// in the job's fit buffer, iteratively resolving spacing violations against
// previously routed passages of other nets and the corner discs (Fig. 12
// construction). An unresolvable violation marks the passage failed. The
// returned polyline aliases the job's fit buffer; the caller copies it out.
//
//rdl:noalloc
func (d *Detailer) fitRoute(job *tileJob, self *tilePassage, routed []*tilePassage) geom.Polyline {
	a, b, ref := self.ia, self.ib, self.ref
	route := append(job.fitBuf[:0], a, b)
	const slack = 1e-9
	viaLimit := d.G.Design.Rules.ViaWireClearance(d.G.Design.WidthOf(self.net))
	for iter := 0; iter < maxFitIters; iter++ {
		found, fixed := false, false
		for si := 0; si+1 < len(route) && !fixed; si++ {
			seg := geom.Seg(route[si], route[si+1])
			// Corner discs.
			for _, c := range job.corners {
				if c.ApproxEq(a) || c.ApproxEq(b) {
					continue // the passage's own terminal via/pin
				}
				eff := geom.Circ(c, viaLimit)
				if !eff.IntersectSegment(seg) {
					continue
				}
				found = true
				//rdl:allow noalloc resolveViolation never keeps &route, so the compiler leaves route on the stack; TestDetailRunDoesNotAllocate covers fitRoute
				if d.resolveViolation(&route, si, eff, ref, job.tri) {
					fixed = true
					break
				}
			}
			if fixed {
				break
			}
			// Access points of the other passages in this tile.
			for _, ob := range job.apObs {
				if d.G.Design.SameGroup(ob.net, self.net) {
					continue
				}
				clear := d.G.Design.Clearance(self.net, ob.net)
				for _, pt := range ob.pts {
					disc := geom.Circ(pt, clear)
					if !disc.IntersectSegment(seg) {
						continue
					}
					found = true
					//rdl:allow noalloc resolveViolation never keeps &route, so the compiler leaves route on the stack; TestDetailRunDoesNotAllocate covers fitRoute
					if d.resolveViolation(&route, si, disc, ref, job.tri) {
						fixed = true
						break
					}
				}
				if fixed {
					break
				}
			}
			if fixed {
				break
			}
			// Previously routed passages of other nets (same-group wires
			// are the same electrical net and carry no spacing rule).
			for _, other := range routed {
				if len(other.route) < 2 || d.G.Design.SameGroup(other.net, self.net) {
					continue
				}
				clear := d.G.Design.Clearance(self.net, other.net)
				dist, pc := other.route.DistToSegment(seg)
				if dist >= clear-slack {
					continue
				}
				found = true
				//rdl:allow noalloc resolveViolation never keeps &route, so the compiler leaves route on the stack; TestDetailRunDoesNotAllocate covers fitRoute
				if d.resolveViolation(&route, si, geom.Circ(pc, clear), ref, job.tri) {
					fixed = true
					break
				}
			}
		}
		if !found {
			job.fitBuf = route
			return route.SimplifyInPlace()
		}
		if !fixed {
			// A violation exists but the tangent construction cannot clear
			// it (an endpoint sits inside the constraint circle).
			self.failed = true
			job.fitBuf = route
			return route.SimplifyInPlace()
		}
	}
	self.failed = true
	job.fitBuf = route
	return route.SimplifyInPlace()
}

// resolveViolation replaces segment si of the route with the two tangents of
// the constraint circle (Fig. 12), splicing in the tangent intersection
// point in place. The detour bulges toward the side of the obstacle the
// segment already runs on, so it can never flip across the violated route.
// It reports whether the route changed.
//
//rdl:noalloc
func (d *Detailer) resolveViolation(route *geom.Polyline, si int, c geom.Circle, ref geom.Point, tri [3]geom.Point) bool {
	ps, pt := (*route)[si], (*route)[si+1]
	// Bulge away from the obstacle toward the segment's current side; when
	// the segment passes (nearly) through the centre, fall back to bulging
	// away from the passage's reference point.
	q := geom.Seg(ps, pt).ClosestPoint(c.C)
	away := q.Sub(c.C)
	sideRef := ref
	if away.Norm() > 1e-9 {
		sideRef = c.C.Sub(away)
	}
	// Grow the circle fractionally so the tangent segments clear it beyond
	// float noise.
	cc := geom.Circ(c.C, c.R*1.0001)
	i, ok := cc.TangentIntersection(ps, pt, sideRef)
	if !ok {
		return false
	}
	if i.ApproxEq(ps) || i.ApproxEq(pt) {
		return false
	}
	// The apex must stay inside the tile: an escaping detour would enter a
	// neighbouring tile whose wires this fit never checks against.
	if !geom.PointInTriangle(i, tri[0], tri[1], tri[2]) {
		return false
	}
	*route = append(*route, geom.Point{})
	copy((*route)[si+2:], (*route)[si+1:len(*route)-1])
	(*route)[si+1] = i
	atomic.AddInt64(&d.fitTangents, 1) // tiles route concurrently
	return true
}
