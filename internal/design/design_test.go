package design

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"rdlroute/internal/geom"
)

// tableI holds the exact statistics from Table I of the paper.
var tableI = []Stats{
	{Name: "dense1", Chips: 2, IOPads: 44, BumpPads: 324, Nets: 22, WireLayers: 2},
	{Name: "dense2", Chips: 3, IOPads: 92, BumpPads: 784, Nets: 46, WireLayers: 2},
	{Name: "dense3", Chips: 5, IOPads: 158, BumpPads: 308, Nets: 79, WireLayers: 3},
	{Name: "dense4", Chips: 6, IOPads: 222, BumpPads: 684, Nets: 111, WireLayers: 3},
	{Name: "dense5", Chips: 9, IOPads: 522, BumpPads: 1444, Nets: 261, WireLayers: 4},
}

func TestGenerateMatchesTableI(t *testing.T) {
	for _, want := range tableI {
		d, err := GenerateDense(want.Name)
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		if got := d.Stats(); got != want {
			t.Errorf("%s stats = %+v, want %+v", want.Name, got, want)
		}
	}
}

func TestGenerateAllDense(t *testing.T) {
	names := DenseNames()
	if len(names) != 5 {
		t.Fatalf("%d dense designs, want 5", len(names))
	}
	for i, name := range names {
		d, err := GenerateDense(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Name != tableI[i].Name {
			t.Errorf("design %d = %s, want %s", i, d.Name, tableI[i].Name)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := GenerateDense("nope"); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := GenerateDense("dense2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDense("dense2")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.IOPads) != len(b.IOPads) {
		t.Fatal("pad counts differ between runs")
	}
	for i := range a.IOPads {
		if a.IOPads[i] != b.IOPads[i] {
			t.Fatalf("pad %d differs: %+v vs %+v", i, a.IOPads[i], b.IOPads[i])
		}
	}
}

func TestNetPinsOnDistinctChips(t *testing.T) {
	d, err := GenerateDense("dense3")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range d.Nets {
		ca := d.IOPads[n.Pins[0]].Chip
		cb := d.IOPads[n.Pins[1]].Chip
		if ca == cb {
			t.Errorf("net %d connects chip %d to itself", n.ID, ca)
		}
	}
}

func TestPadsOnChipBoundary(t *testing.T) {
	d, err := GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.IOPads {
		co := d.Chips[p.Chip].Outline
		onX := geom.ApproxEq(p.Pos.X, co.Min.X) || geom.ApproxEq(p.Pos.X, co.Max.X)
		onY := geom.ApproxEq(p.Pos.Y, co.Min.Y) || geom.ApproxEq(p.Pos.Y, co.Max.Y)
		if !onX && !onY {
			t.Errorf("pad %d at %v not on chip %d boundary %+v", p.ID, p.Pos, p.Chip, co)
		}
	}
}

func TestPadSpacingRespectsPitch(t *testing.T) {
	// Pads on the same chip edge must be separated by at least the wire
	// pitch, otherwise the design is unroutable by construction.
	for _, name := range DenseNames() {
		d, err := GenerateDense(name)
		if err != nil {
			t.Fatal(err)
		}
		pitch := d.Rules.Pitch()
		for i, a := range d.IOPads {
			for _, b := range d.IOPads[i+1:] {
				if d := a.Pos.Dist(b.Pos); d < pitch {
					t.Fatalf("%s: pads %d and %d only %v apart (pitch %v)",
						name, a.ID, b.ID, d, pitch)
				}
			}
		}
	}
}

func TestRulesValidate(t *testing.T) {
	r := DefaultRules()
	if err := r.Validate(); err != nil {
		t.Error(err)
	}
	if r.Pitch() != r.WireWidth+r.MinSpacing {
		t.Error("Pitch formula wrong")
	}
	bad := r
	bad.WireWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero wire width must fail validation")
	}
	bad = r
	bad.MinTurnDist = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative turn distance must fail validation")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *Design {
		d, err := GenerateDense("dense1")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	d := fresh()
	d.Nets[0].Pins[1] = d.Nets[0].Pins[0]
	if err := d.Validate(); err == nil {
		t.Error("self-loop net must fail")
	}

	d = fresh()
	d.Nets[0].Pins[0] = 10_000
	if err := d.Validate(); err == nil {
		t.Error("out-of-range pin must fail")
	}

	d = fresh()
	d.IOPads[0].Pos = geom.Pt(-1e6, 0)
	if err := d.Validate(); err == nil {
		t.Error("pad outside outline must fail")
	}

	d = fresh()
	d.IOPads[3].Net = 999
	if err := d.Validate(); err == nil {
		t.Error("net/pad disagreement must fail")
	}

	d = fresh()
	d.Chips[1].Outline = d.Chips[0].Outline
	if err := d.Validate(); err == nil {
		t.Error("overlapping chips must fail")
	}

	d = fresh()
	d.WireLayers = 0
	if err := d.Validate(); err == nil {
		t.Error("zero wire layers must fail")
	}
}

func TestHPWL(t *testing.T) {
	d, err := GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	total := d.TotalHPWL()
	if total <= 0 {
		t.Fatal("total HPWL must be positive")
	}
	var sum float64
	for _, n := range d.Nets {
		h := d.NetHPWL(n)
		if h <= 0 {
			t.Errorf("net %d HPWL = %v", n.ID, h)
		}
		// Each dense1 net crosses the 420 µm channel.
		if h < genChannel {
			t.Errorf("net %d HPWL %v below channel width", n.ID, h)
		}
		sum += h
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Error("TotalHPWL disagrees with per-net sum")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d, err := GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || len(got.Nets) != len(d.Nets) ||
		len(got.IOPads) != len(d.IOPads) || len(got.BumpPads) != len(d.BumpPads) {
		t.Error("round trip lost data")
	}
	if got.Rules != d.Rules {
		t.Error("round trip changed rules")
	}
	for i := range d.IOPads {
		if got.IOPads[i] != d.IOPads[i] {
			t.Fatalf("pad %d changed in round trip", i)
		}
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{")); err == nil {
		t.Error("malformed JSON must fail")
	}
	// Structurally valid JSON, semantically invalid design.
	if _, err := ReadJSON(bytes.NewBufferString(`{"Name":"x","WireLayers":0}`)); err == nil {
		t.Error("invalid design must fail validation")
	}
}

func TestSaveLoadFile(t *testing.T) {
	d, err := GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/d.json"
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "dense1" {
		t.Errorf("loaded name = %s", got.Name)
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("missing file must fail")
	}
}

// TestMaxLayersValidation covers the per-net layer-constraint knob: the
// valid range is 0 (unconstrained) to WireLayers inclusive.
func TestMaxLayersValidation(t *testing.T) {
	fresh := func() *Design {
		d, err := GenerateDense("dense1") // 2 wire layers
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	d := fresh()
	d.Nets[0].MaxLayers = -1
	if err := d.Validate(); !errors.Is(err, ErrBadReference) {
		t.Errorf("negative MaxLayers: err = %v, want ErrBadReference", err)
	}

	d = fresh()
	d.Nets[0].MaxLayers = d.WireLayers + 1
	if err := d.Validate(); !errors.Is(err, ErrBadReference) {
		t.Errorf("MaxLayers > WireLayers: err = %v, want ErrBadReference", err)
	}

	d = fresh()
	d.Nets[0].MaxLayers = 1
	d.Nets[1].MaxLayers = d.WireLayers
	if err := d.Validate(); err != nil {
		t.Errorf("valid MaxLayers rejected: %v", err)
	}
}

func TestLayerAllowed(t *testing.T) {
	d, err := GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	d.Nets[0].MaxLayers = 1
	if !d.LayerAllowed(0, 0) {
		t.Error("net 0 must keep layer 0")
	}
	if d.LayerAllowed(0, 1) {
		t.Error("net 0 restricted to 1 layer must not use layer 1")
	}
	if !d.LayerAllowed(1, 1) {
		t.Error("unconstrained net must use any layer")
	}
	if !d.LayerAllowed(-1, 5) || !d.LayerAllowed(10_000, 5) {
		t.Error("out-of-range net IDs are unconstrained")
	}
}
