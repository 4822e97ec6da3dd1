// Package viaplan implements candidate-via planning for multi-RDL routing,
// following the via-planning step the paper adopts from Cai et al. (DAC'21):
// each via layer receives a lattice of candidate via sites (with clearance
// to pads and bump pads), and every wire layer is given the vertex set that
// the Delaunay triangulation of that layer will be built from — its pins,
// the candidate vias touching it from above and below, its bump pads, and
// uniformly spaced dummy points on the package outline that balance the
// triangulation near the boundary (after Fang et al.).
package viaplan

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/obs"
)

// VertexKind classifies a triangulation vertex of a wire layer.
type VertexKind uint8

// Triangulation vertex kinds.
const (
	// KindPin is a chip I/O pad: a net terminal on the top wire layer.
	KindPin VertexKind = iota
	// KindVia is a candidate via touching this wire layer.
	KindVia
	// KindBump is a bump pad on the bottom wire layer. Bump pads block the
	// via capacity at their location but their tile edges still carry wires.
	KindBump
	// KindDummy is a boundary dummy point inserted only to balance the
	// triangulation; it carries no via capacity.
	KindDummy
)

// String returns a short name for the vertex kind.
func (k VertexKind) String() string {
	switch k {
	case KindPin:
		return "pin"
	case KindVia:
		return "via"
	case KindBump:
		return "bump"
	default:
		return "dummy"
	}
}

// Via is one candidate via site.
type Via struct {
	ID int
	// Layer is the via layer index: via layer k connects wire layers k and
	// k+1.
	Layer int
	Pos   geom.Point
}

// Vertex is one triangulation input vertex of a wire layer.
type Vertex struct {
	Kind VertexKind
	// Ref is the pad ID (KindPin), via ID (KindVia), bump pad ID
	// (KindBump), or a per-layer dummy ordinal (KindDummy).
	Ref int
	Pos geom.Point
}

// LayerPlan is the triangulation input for one wire layer.
type LayerPlan struct {
	// Index is the wire layer index, 0 = top (pins), WireLayers-1 = bottom
	// (bumps).
	Index int
	Verts []Vertex
}

// Plan is the complete via-planning result.
type Plan struct {
	Vias   []Via
	Layers []LayerPlan
}

// Options tunes candidate-via generation.
type Options struct {
	// ViaCost biases the candidate lattice density toward the router's via
	// objective: 0 leaves the default pitch untouched, a positive value is
	// the explicit cross-via cost (pricier vias thin the lattice), and a
	// negative value means free vias (densest lattice). router.Route fills
	// an unset value from the graph's via cost through rgraph.ViaCostValue.
	ViaCost float64 `json:"via_cost"`
	// Rec receives the stage's size counters. Nil selects the no-op
	// recorder.
	Rec obs.Recorder `json:"-"`
}

// The lattice's fixed shape.
const (
	// pitchTracks is the via pitch in wire pitches before the via-cost
	// scaling: roughly 30 wire tracks between neighbouring vias, dense
	// enough for detours, sparse enough to keep the graphs small.
	pitchTracks = 30
	// dummyStepPitches is the spacing of the outline dummy points in via
	// pitches.
	dummyStepPitches = 2
	// jitterFrac is the fraction of the pitch by which each lattice site is
	// randomly (but deterministically) perturbed, breaking the exact
	// cocircularities of a perfect lattice.
	jitterFrac = 0.15
	// jitterSeed seeds the jitter RNG, so an identical design and options
	// give an identical lattice.
	jitterSeed = 1
)

// pitch returns the lattice spacing of candidate via sites in µm.
func (o Options) pitch(rules design.Rules) float64 {
	pitch := pitchTracks * rules.Pitch()
	if o.ViaCost != 0 {
		// Scale the lattice with the via objective: free vias halve the
		// pitch, a cost of 4× the default quadruples^0.5 (doubles) it.
		// The square root keeps the via count roughly proportional to
		// 1/cost; clamp to [0.5, 2] so extreme costs cannot degenerate
		// the triangulation.
		cost := o.ViaCost
		if cost < 0 {
			cost = 0
		}
		scale := math.Sqrt(cost / (4 * rules.ViaWidth))
		if scale < 0.5 {
			scale = 0.5
		} else if scale > 2 {
			scale = 2
		}
		pitch *= scale
	}
	return pitch
}

// maxLatticePoints caps the lattice sites and boundary dummies one plan may
// lay over all its layers: 1<<17 = 131 072, 23× the 5 696 candidate vias
// dense5 plans. Design rules of any positive size pass validation, and the
// lattice grows with 1/pitch², so without a cap a tiny-rule design would
// exhaust memory before routing began.
const maxLatticePoints = 1 << 17

// ErrLatticeTooLarge reports a design and via options that imply more
// lattice sites and boundary dummies than the planner's cap of 1<<17.
var ErrLatticeTooLarge = errors.New("viaplan: candidate lattice too large")

// Build generates the candidate vias and per-wire-layer triangulation
// vertices for the design. It returns ErrLatticeTooLarge, wrapped with the
// count, before laying any point when the lattice would exceed its cap.
func Build(d *design.Design, opt Options) (*Plan, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	pitch := opt.pitch(d.Rules)
	if n := latticePoints(d, pitch); n > maxLatticePoints {
		return nil, fmt.Errorf("%w: %.4g points, cap %d", ErrLatticeTooLarge, n, maxLatticePoints)
	}
	p := &Plan{Layers: make([]LayerPlan, d.WireLayers)}
	for i := range p.Layers {
		p.Layers[i].Index = i
	}

	clearance := d.Rules.ViaViaClearance()
	//rdl:allow detrand jitter RNG has the fixed seed jitterSeed: identical design+options give an identical via lattice
	rng := rand.New(rand.NewSource(jitterSeed))
	ioPads, bumpPads := sortedByX(d.IOPads), sortedByX(d.BumpPads)

	// One lattice per via layer. Odd layers are offset by half a pitch so
	// stacked meshes do not share degenerate geometry.
	for vl := 0; vl < d.WireLayers-1; vl++ {
		sites := latticeSites(d.Outline, pitch, rng, vl)
		for _, pos := range sites {
			if tooClose(pos, d, vl, clearance, ioPads, bumpPads) {
				continue
			}
			p.Vias = append(p.Vias, Via{ID: len(p.Vias), Layer: vl, Pos: pos})
		}
	}

	// Assemble per-layer vertex lists.
	for li := range p.Layers {
		lp := &p.Layers[li]
		if li == 0 {
			for _, pad := range d.IOPads {
				lp.Verts = append(lp.Verts, Vertex{Kind: KindPin, Ref: pad.ID, Pos: pad.Pos})
			}
		}
		if li == d.WireLayers-1 {
			for _, pad := range d.BumpPads {
				lp.Verts = append(lp.Verts, Vertex{Kind: KindBump, Ref: pad.ID, Pos: pad.Pos})
			}
		}
	}
	for _, v := range p.Vias {
		for _, li := range []int{v.Layer, v.Layer + 1} {
			p.Layers[li].Verts = append(p.Layers[li].Verts,
				Vertex{Kind: KindVia, Ref: v.ID, Pos: v.Pos})
		}
	}
	for li := range p.Layers {
		lp := &p.Layers[li]
		dummies := boundaryDummies(d.Outline, dummyStepPitches*pitch)
		for i, pos := range dummies {
			lp.Verts = append(lp.Verts, Vertex{Kind: KindDummy, Ref: i, Pos: pos})
		}
		if len(lp.Verts) < 3 {
			return nil, fmt.Errorf("viaplan: wire layer %d has only %d vertices", li, len(lp.Verts))
		}
	}
	if rec := obs.Or(opt.Rec); rec.Enabled() {
		rec.Count("viaplan.vias", int64(len(p.Vias)))
		var verts int64
		for _, lp := range p.Layers {
			verts += int64(len(lp.Verts))
		}
		rec.Count("viaplan.vertices", verts)
	}
	return p, nil
}

// latticePoints returns an upper bound on the lattice sites latticeSites
// and the dummies boundaryDummies lay over all layers at the via pitch, in
// floating point so that no pitch can overflow it.
func latticePoints(d *design.Design, pitch float64) float64 {
	axis := func(lo, hi float64) float64 { // sites from lo to hi at the pitch
		if hi < lo {
			return 0
		}
		return math.Floor((hi-lo)/pitch) + 1
	}
	o, margin, step := d.Outline, pitch/2, dummyStepPitches*pitch
	sites := axis(o.Min.X+margin, o.Max.X-margin) * axis(o.Min.Y+margin, o.Max.Y-margin)
	dummies := 2*(math.Floor(o.W()/step)+2) + 2*math.Floor(o.H()/step)
	return sites*float64(d.WireLayers-1) + dummies*float64(d.WireLayers)
}

// latticeSites returns the jittered lattice positions for one via layer.
func latticeSites(outline geom.Rect, pitch float64, rng *rand.Rand, viaLayer int) []geom.Point {
	margin := pitch / 2
	x0, y0 := outline.Min.X+margin, outline.Min.Y+margin
	x1, y1 := outline.Max.X-margin, outline.Max.Y-margin
	offset := 0.0
	if viaLayer%2 == 1 {
		offset = pitch / 2
	}
	var pts []geom.Point
	row := 0
	for y := y0; y <= y1; y += pitch {
		// Stagger alternating rows for a roughly hexagonal packing, which
		// triangulates into better-shaped tiles than a square lattice.
		rowOff := offset
		if row%2 == 1 {
			rowOff += pitch / 2
		}
		for x := x0 + rowOff; x <= x1; x += pitch {
			jx := (rng.Float64() - 0.5) * 2 * jitterFrac * pitch
			jy := (rng.Float64() - 0.5) * 2 * jitterFrac * pitch
			p := geom.Pt(geom.Clamp(x+jx, x0, x1), geom.Clamp(y+jy, y0, y1))
			pts = append(pts, p)
		}
		row++
	}
	return pts
}

// tooClose reports whether a candidate via position violates clearance to
// the fixed geometry relevant to its via layer: I/O pads block via layer 0
// (directly under the pins), bump pads block the bottom via layer, and
// obstacles block any via touching a blocked wire layer. ioPads and
// bumpPads are the design's pad positions sorted by x.
func tooClose(pos geom.Point, d *design.Design, viaLayer int, clearance float64, ioPads, bumpPads padsByX) bool {
	if viaLayer == 0 && ioPads.near(pos, clearance) {
		return true
	}
	if viaLayer == d.WireLayers-2 && bumpPads.near(pos, clearance) {
		return true
	}
	// A via in via layer k touches wire layers k and k+1.
	if d.PointBlocked(pos, viaLayer, clearance) || d.PointBlocked(pos, viaLayer+1, clearance) {
		return true
	}
	return false
}

// padsByX holds pad positions sorted by x.
type padsByX []geom.Point

func sortedByX(pads []design.Pad) padsByX {
	ps := make(padsByX, len(pads))
	for i, p := range pads {
		ps[i] = p.Pos
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].X < ps[j].X })
	return ps
}

// near reports whether some pad lies closer than clearance to pos. It
// tests only the pads with |dx| < clearance, the window where both
// differences are below it: pos.Dist is math.Hypot(dx, dy), which is at
// least |dx| in float64, so no pad outside the window can pass the test.
// Both window bounds are monotone in the pad's x, so a binary search
// finds the window's start and the scan stops at its end.
func (ps padsByX) near(pos geom.Point, clearance float64) bool {
	i := sort.Search(len(ps), func(i int) bool { return pos.X-ps[i].X < clearance })
	for ; i < len(ps) && ps[i].X-pos.X < clearance; i++ {
		if pos.Dist(ps[i]) < clearance {
			return true
		}
	}
	return false
}

// boundaryDummies returns points spaced ~step apart along the outline
// boundary, corners included.
func boundaryDummies(outline geom.Rect, step float64) []geom.Point {
	var pts []geom.Point
	w, h := outline.W(), outline.H()
	nx := int(w/step) + 1
	ny := int(h/step) + 1
	for i := 0; i <= nx; i++ {
		x := outline.Min.X + w*float64(i)/float64(nx)
		pts = append(pts, geom.Pt(x, outline.Min.Y), geom.Pt(x, outline.Max.Y))
	}
	for i := 1; i < ny; i++ {
		y := outline.Min.Y + h*float64(i)/float64(ny)
		pts = append(pts, geom.Pt(outline.Min.X, y), geom.Pt(outline.Max.X, y))
	}
	return pts
}
