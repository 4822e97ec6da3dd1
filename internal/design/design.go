// Package design defines the RDL routing problem model: design rules, chips,
// I/O pads, bump pads, nets, and the package outline, together with a
// deterministic generator for the dense1–dense5 benchmark family whose
// statistics match Table I of the paper.
//
// The original benchmark suite (Cai et al., DAC'21) is not public, so the
// generator synthesizes designs with the same shape: several chips molded
// into one InFO package, dense I/O pads on facing chip edges, a uniform
// bump-pad grid on the bottom layer, and two-pin chip-to-chip nets.
package design

import (
	"errors"
	"fmt"
	"math"

	"rdlroute/internal/geom"
)

// Typed validation sentinels. Validate wraps every finding in one of these,
// so untrusted-input consumers (the serving layer, file loaders) can map
// failures to error classes with errors.Is without parsing messages.
var (
	// ErrNonFinite marks NaN or ±Inf in a coordinate, rule, or width.
	ErrNonFinite = errors.New("non-finite value")
	// ErrOutOfBounds marks geometry outside the package outline.
	ErrOutOfBounds = errors.New("out of bounds")
	// ErrBadReference marks an index that points at a nonexistent pad,
	// chip, layer, or net, or an ID that disagrees with its slice position.
	ErrBadReference = errors.New("bad reference")
	// ErrDuplicateNetName marks two nets sharing a non-empty name.
	ErrDuplicateNetName = errors.New("duplicate net name")
	// ErrBadRules marks physically meaningless design rules.
	ErrBadRules = errors.New("bad design rules")
)

// finite reports whether every value is a real number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func finiteRect(r geom.Rect) bool {
	return finite(r.Min.X, r.Min.Y, r.Max.X, r.Max.Y)
}

// Rules holds the manufacturing design rules of the paper's §II-B. All
// values are in µm.
type Rules struct {
	// WireWidth is w_w, the metal wire width.
	WireWidth float64
	// ViaWidth is w_v, the via width.
	ViaWidth float64
	// MinSpacing is w_s, the minimum spacing between any two vias or wire
	// segments belonging to different nets.
	MinSpacing float64
	// MinTurnDist is w_x, the minimum distance between two successive turns
	// of a wire, required for manufacturability.
	MinTurnDist float64
}

// DefaultRules returns design rules representative of a high-end InFO RDL
// process (2 µm line / 2 µm space, 5 µm vias).
func DefaultRules() Rules {
	return Rules{WireWidth: 2, ViaWidth: 5, MinSpacing: 2, MinTurnDist: 4}
}

// Pitch returns the wire pitch w_w + w_s used throughout the capacity
// equations of the paper.
func (r Rules) Pitch() float64 { return r.WireWidth + r.MinSpacing }

// ViaWireClearance returns w_v/2 + w_s + w/2, the least distance between a
// via's centre and the centreline of a wire of width w on another net.
func (r Rules) ViaWireClearance(w float64) float64 {
	return r.ViaWidth/2 + r.MinSpacing + w/2
}

// ViaViaClearance returns w_v + w_s, the least distance between the centres
// of two vias of different nets.
func (r Rules) ViaViaClearance() float64 { return r.ViaWidth + r.MinSpacing }

// Validate reports whether the rules are physically meaningful.
func (r Rules) Validate() error {
	if !finite(r.WireWidth, r.ViaWidth, r.MinSpacing, r.MinTurnDist) {
		return fmt.Errorf("design: %w in rules %+v", ErrNonFinite, r)
	}
	if r.WireWidth <= 0 || r.ViaWidth <= 0 || r.MinSpacing <= 0 || r.MinTurnDist < 0 {
		return fmt.Errorf("design: non-positive rule in %+v: %w", r, ErrBadRules)
	}
	return nil
}

// Chip is a die molded into the package.
type Chip struct {
	Name    string
	Outline geom.Rect
}

// Pad is an I/O pad (on a chip) or a bump pad (on the package bottom).
type Pad struct {
	// ID is the pad's index within its owning slice (IOPads or BumpPads).
	ID int
	// Net is the ID of the net this pad belongs to, or -1 when the pad
	// carries no routed signal (e.g. power/ground bumps acting only as
	// blockage).
	Net int
	// Chip is the owning chip index for I/O pads, or -1 for bump pads.
	Chip int
	// Pos is the pad center.
	Pos geom.Point
}

// Net is a two-pin chip-to-chip connection: the pre-assignment netlist of
// the paper gives each net its pads up front. Multi-pin nets are expressed
// as groups of two-pin subnets (see AddMultiPinNet).
type Net struct {
	ID   int
	Name string
	// Pins holds the two pad indices into Design.IOPads, in (source,
	// target) order. m_i^0 and m_i^1 in the paper's notation.
	Pins [2]int
	// Group links the subnets of one multi-pin net; zero means standalone.
	// Use Design.GroupOf / Design.SameGroup rather than reading this field.
	Group int `json:",omitempty"`
	// Width overrides the wire width for this net (µm); zero selects the
	// design rules' default WireWidth. Power and clock nets are typically
	// drawn wider than signal nets.
	Width float64 `json:",omitempty"`
	// MaxLayers restricts the net to the topmost MaxLayers wire layers
	// (layers 0..MaxLayers-1); zero means unconstrained. Signal-integrity
	// nets use it to avoid layer changes entirely (MaxLayers=1). Validate
	// rejects negative values and values above WireLayers; the routing
	// graph honors it via Design.LayerAllowed.
	MaxLayers int `json:",omitempty"`
}

// Design is a complete any-angle RDL routing problem instance.
type Design struct {
	Name    string
	Rules   Rules
	Outline geom.Rect
	Chips   []Chip
	// IOPads are the chip I/O pads; nets reference these by index.
	IOPads []Pad
	// BumpPads are the package-bottom bump pads. They are not routed by
	// the inter-chip nets but occupy routing resources in the bottom wire
	// layer.
	BumpPads []Pad
	Nets     []Net
	// WireLayers is |L_w|, the number of wire layers. Via layers sit
	// between adjacent wire layers, so there are WireLayers-1 of them.
	WireLayers int
	// Obstacles are routing keep-out regions; see AddObstacle.
	Obstacles []Obstacle
}

// Stats summarizes a design in Table I form.
type Stats struct {
	Name       string
	Chips      int
	IOPads     int
	BumpPads   int
	Nets       int
	WireLayers int
}

// Stats returns the Table I statistics of the design.
func (d *Design) Stats() Stats {
	return Stats{
		Name:       d.Name,
		Chips:      len(d.Chips),
		IOPads:     len(d.IOPads),
		BumpPads:   len(d.BumpPads),
		Nets:       len(d.Nets),
		WireLayers: d.WireLayers,
	}
}

// Validate checks structural consistency: rules are sane, every coordinate
// is finite, pads sit inside the outline, chips do not overlap, net names
// are unique, net pins reference existing pads of the right net, and every
// pad referenced by a net agrees on the net ID. It is the single gate for
// untrusted input — the serving layer accepts any design that passes it —
// so every finding wraps one of the typed sentinels above.
func (d *Design) Validate() error {
	if err := d.Rules.Validate(); err != nil {
		return err
	}
	if d.WireLayers < 1 {
		return fmt.Errorf("design %s: need at least 1 wire layer: %w", d.Name, ErrBadReference)
	}
	if !finiteRect(d.Outline) {
		return fmt.Errorf("design %s: %w in outline", d.Name, ErrNonFinite)
	}
	for i, c := range d.Chips {
		if !finiteRect(c.Outline) {
			return fmt.Errorf("design %s: %w in chip %d outline", d.Name, ErrNonFinite, i)
		}
		if !d.Outline.ContainsRect(c.Outline) {
			return fmt.Errorf("design %s: chip %d outside outline: %w", d.Name, i, ErrOutOfBounds)
		}
		for j := i + 1; j < len(d.Chips); j++ {
			if c.Outline.Intersects(d.Chips[j].Outline) {
				return fmt.Errorf("design %s: chips %d and %d overlap: %w", d.Name, i, j, ErrOutOfBounds)
			}
		}
	}
	for i, p := range d.IOPads {
		if p.ID != i {
			return fmt.Errorf("design %s: IO pad %d has ID %d: %w", d.Name, i, p.ID, ErrBadReference)
		}
		if !finite(p.Pos.X, p.Pos.Y) {
			return fmt.Errorf("design %s: %w in IO pad %d position", d.Name, ErrNonFinite, i)
		}
		if !d.Outline.Contains(p.Pos) {
			return fmt.Errorf("design %s: IO pad %d outside outline: %w", d.Name, i, ErrOutOfBounds)
		}
		if p.Chip < 0 || p.Chip >= len(d.Chips) {
			return fmt.Errorf("design %s: IO pad %d has invalid chip %d: %w", d.Name, i, p.Chip, ErrBadReference)
		}
	}
	for i, p := range d.BumpPads {
		if p.ID != i {
			return fmt.Errorf("design %s: bump pad %d has ID %d: %w", d.Name, i, p.ID, ErrBadReference)
		}
		if !finite(p.Pos.X, p.Pos.Y) {
			return fmt.Errorf("design %s: %w in bump pad %d position", d.Name, ErrNonFinite, i)
		}
		if !d.Outline.Contains(p.Pos) {
			return fmt.Errorf("design %s: bump pad %d outside outline: %w", d.Name, i, ErrOutOfBounds)
		}
	}
	for i, o := range d.Obstacles {
		if !finiteRect(o.Rect) {
			return fmt.Errorf("design %s: %w in obstacle %d", d.Name, ErrNonFinite, i)
		}
		if !d.Outline.ContainsRect(o.Rect) {
			return fmt.Errorf("design %s: obstacle %d outside outline: %w", d.Name, i, ErrOutOfBounds)
		}
		for _, l := range o.Layers {
			if l < 0 || l >= d.WireLayers {
				return fmt.Errorf("design %s: obstacle %d blocks invalid layer %d: %w", d.Name, i, l, ErrBadReference)
			}
		}
	}
	names := make(map[string]int, len(d.Nets))
	for i, n := range d.Nets {
		if n.ID != i {
			return fmt.Errorf("design %s: net %d has ID %d: %w", d.Name, i, n.ID, ErrBadReference)
		}
		if !finite(n.Width) {
			return fmt.Errorf("design %s: %w in net %d width", d.Name, ErrNonFinite, i)
		}
		if n.Width < 0 {
			return fmt.Errorf("design %s: net %d has negative width: %w", d.Name, i, ErrBadRules)
		}
		if n.Name != "" {
			if prev, ok := names[n.Name]; ok {
				return fmt.Errorf("design %s: nets %d and %d both named %q: %w",
					d.Name, prev, i, n.Name, ErrDuplicateNetName)
			}
			names[n.Name] = i
		}
		for _, pin := range n.Pins {
			if pin < 0 || pin >= len(d.IOPads) {
				return fmt.Errorf("design %s: net %d pin %d out of range: %w", d.Name, i, pin, ErrBadReference)
			}
			if owner := d.IOPads[pin].Net; owner != n.ID && !d.SameGroup(owner, n.ID) {
				return fmt.Errorf("design %s: net %d pin pad %d claims net %d: %w",
					d.Name, i, pin, owner, ErrBadReference)
			}
		}
		if n.Pins[0] == n.Pins[1] {
			return fmt.Errorf("design %s: net %d connects a pad to itself: %w", d.Name, i, ErrBadReference)
		}
		if n.MaxLayers < 0 || n.MaxLayers > d.WireLayers {
			return fmt.Errorf("design %s: net %d restricted to %d of %d wire layers: %w",
				d.Name, i, n.MaxLayers, d.WireLayers, ErrBadReference)
		}
	}
	return nil
}

// LayerAllowed reports whether a net may use a wire layer, honoring the
// net's MaxLayers constraint. Out-of-range net IDs are unconstrained.
func (d *Design) LayerAllowed(netID, layer int) bool {
	if netID < 0 || netID >= len(d.Nets) {
		return true
	}
	if m := d.Nets[netID].MaxLayers; m > 0 && layer >= m {
		return false
	}
	return true
}

// WidthOf returns the wire width of a net, falling back to the rules'
// default for unset or out-of-range IDs.
func (d *Design) WidthOf(netID int) float64 {
	if netID >= 0 && netID < len(d.Nets) && d.Nets[netID].Width > 0 {
		return d.Nets[netID].Width
	}
	return d.Rules.WireWidth
}

// Clearance returns the required centre-to-centre distance between wires of
// nets a and b: half of each width plus the minimum spacing. For default
// widths this equals the wire pitch w_w + w_s.
func (d *Design) Clearance(a, b int) float64 {
	return (d.WidthOf(a)+d.WidthOf(b))/2 + d.Rules.MinSpacing
}

// TrackUnits returns how many standard routing tracks a net occupies when
// crossing a tile edge: a net of width W needs (W+w_s) of span against the
// standard pitch w_w + w_s.
func (d *Design) TrackUnits(netID int) int {
	u := int(math.Ceil((d.WidthOf(netID) + d.Rules.MinSpacing) / d.Rules.Pitch()))
	if u < 1 {
		u = 1
	}
	return u
}

// PinPos returns the positions of net n's two pins.
func (d *Design) PinPos(n Net) (geom.Point, geom.Point) {
	return d.IOPads[n.Pins[0]].Pos, d.IOPads[n.Pins[1]].Pos
}

// NetHPWL returns the Euclidean pin-to-pin distance of a net, the lower
// bound on its routed wirelength.
func (d *Design) NetHPWL(n Net) float64 {
	a, b := d.PinPos(n)
	return a.Dist(b)
}

// TotalHPWL returns the sum of Euclidean pin-to-pin distances over all nets.
func (d *Design) TotalHPWL() float64 {
	var sum float64
	for _, n := range d.Nets {
		sum += d.NetHPWL(n)
	}
	return sum
}
