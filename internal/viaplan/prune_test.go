package viaplan

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// tooCloseAllPads is the clearance test without the x-sorted window: every
// site against every pad of its via layer.
func tooCloseAllPads(pos geom.Point, d *design.Design, viaLayer int, clearance float64) bool {
	if viaLayer == 0 {
		for _, pad := range d.IOPads {
			if pos.Dist(pad.Pos) < clearance {
				return true
			}
		}
	}
	if viaLayer == d.WireLayers-2 {
		for _, pad := range d.BumpPads {
			if pos.Dist(pad.Pos) < clearance {
				return true
			}
		}
	}
	return d.PointBlocked(pos, viaLayer, clearance) || d.PointBlocked(pos, viaLayer+1, clearance)
}

// referenceVias replays Build's lattice with tooCloseAllPads.
func referenceVias(d *design.Design, opt Options) []Via {
	pitch := opt.pitch(d.Rules)
	clearance := d.Rules.ViaViaClearance()
	rng := rand.New(rand.NewSource(jitterSeed))
	var vias []Via
	for vl := 0; vl < d.WireLayers-1; vl++ {
		for _, pos := range latticeSites(d.Outline, pitch, rng, vl) {
			if !tooCloseAllPads(pos, d, vl, clearance) {
				vias = append(vias, Via{ID: len(vias), Layer: vl, Pos: pos})
			}
		}
	}
	return vias
}

// checkVias compares Build's candidate vias with the all-pads reference.
func checkVias(t *testing.T, d *design.Design, opt Options) []Via {
	t.Helper()
	p, err := Build(d, opt)
	if err != nil {
		t.Fatalf("%s: %v", d.Name, err)
	}
	if want := referenceVias(d, opt); !reflect.DeepEqual(p.Vias, want) {
		t.Errorf("%s: %d candidate vias, the all-pads reference keeps %d", d.Name, len(p.Vias), len(want))
	}
	return p.Vias
}

// TestBuildMatchesAllPadsReference checks the x-sorted pad window against
// the all-pads scan on dense1–5 and the six designs of cmd/rdlbench's
// random workload (pool seed 1).
func TestBuildMatchesAllPadsReference(t *testing.T) {
	for _, name := range design.DenseNames() {
		checkVias(t, mustDesign(t, name), Options{})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6; i++ {
		d, err := design.GenerateRandom(design.RandomSpec{
			Seed:           rng.Int63(),
			Chips:          2 + rng.Intn(5),
			NetsPerChannel: 8 + rng.Intn(17),
			WireLayers:     2 + rng.Intn(2),
		})
		if err != nil {
			t.Fatalf("random design %d: %v", i, err)
		}
		checkVias(t, d, Options{})
	}
}

// TestPadWindowEdges puts pads exactly the clearance away in x from some
// lattice sites, which keeps them, and just inside it from others, which
// drops them, on both sides of the site and for both pad sets: I/O pads
// against via layer 0 and bump pads against via layer 1.
func TestPadWindowEdges(t *testing.T) {
	d := &design.Design{
		Name:       "pad-window",
		Rules:      design.DefaultRules(),
		WireLayers: 3,
		Outline:    geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1000, 1000)},
		Chips:      []design.Chip{{Name: "c0", Outline: geom.Rect{Min: geom.Pt(10, 10), Max: geom.Pt(990, 990)}}},
	}
	var opt Options
	clearance := d.Rules.ViaViaClearance()
	rng := rand.New(rand.NewSource(jitterSeed))
	pitch := opt.pitch(d.Rules)
	sites := [][]geom.Point{
		latticeSites(d.Outline, pitch, rng, 0),
		latticeSites(d.Outline, pitch, rng, 1),
	}

	// padAt returns an x whose distance from site.X is exactly clearance
	// (side ±1), moved one float step toward the site when inside is set.
	padAt := func(site geom.Point, side float64, inside bool) geom.Point {
		x := site.X + side*clearance
		for math.Abs(site.X-x) < clearance {
			x = math.Nextafter(x, side*math.Inf(1))
		}
		for math.Abs(site.X-x) > clearance {
			x = math.Nextafter(x, -side*math.Inf(1))
		}
		if math.Abs(site.X-x) != clearance {
			t.Fatalf("no pad x exactly %v from %v", clearance, site.X)
		}
		if inside {
			x = math.Nextafter(x, site.X)
		}
		return geom.Pt(x, site.Y)
	}
	type probe struct {
		site geom.Point
		drop bool
	}
	var probes [2][]probe
	for vl, ss := range sites {
		mid := len(ss) / 2
		for k, c := range []struct {
			side   float64
			inside bool
		}{{1, false}, {-1, false}, {1, true}, {-1, true}} {
			site := ss[mid+2*k]
			pad := design.Pad{Chip: -1, Net: -1, Pos: padAt(site, c.side, c.inside)}
			if vl == 0 {
				pad.Chip, pad.ID = 0, len(d.IOPads)
				d.IOPads = append(d.IOPads, pad)
			} else {
				pad.ID = len(d.BumpPads)
				d.BumpPads = append(d.BumpPads, pad)
			}
			probes[vl] = append(probes[vl], probe{site: site, drop: c.inside})
		}
	}

	kept := make(map[geom.Point]bool)
	for _, v := range checkVias(t, d, opt) {
		kept[v.Pos] = true
	}
	for vl, ps := range probes {
		for _, p := range ps {
			if kept[p.site] == p.drop {
				t.Errorf("via layer %d: site %v kept=%v, want %v", vl, p.site, kept[p.site], !p.drop)
			}
		}
	}
}
