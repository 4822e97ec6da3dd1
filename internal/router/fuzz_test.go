package router

import (
	"context"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/global"
)

// TestRandomDesignsRobust routes a spread of randomized designs and checks
// structural invariants regardless of achieved routability: the router must
// never crash, every produced route must connect its net's pins with
// continuous geometry, and the global state must stay consistent.
func TestRandomDesignsRobust(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 42}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		spec := design.RandomSpec{
			Seed:           seed,
			Chips:          2 + int(seed%4),
			NetsPerChannel: 8 + int(seed%9),
			WireLayers:     2 + int(seed%2),
		}
		d, err := design.GenerateRandom(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var gr *global.Router
		opt := Options{}
		opt.Global.AfterEachNet = func(r *global.Router, _ int) { gr = r }
		out, err := Route(context.Background(), d, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if gr == nil {
			t.Fatalf("seed %d: no net committed", seed)
		}
		if err := gr.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Metrics.Routability < 0.9 {
			t.Errorf("seed %d: routability %.2f below sanity bar", seed, out.Metrics.Routability)
		}
		for ni, rt := range out.DetailResult.Routes {
			if rt == nil {
				continue
			}
			a, b := d.PinPos(d.Nets[ni])
			first := rt.Segs[0].Pl[0]
			lastSeg := rt.Segs[len(rt.Segs)-1].Pl
			last := lastSeg[len(lastSeg)-1]
			if !first.ApproxEq(a) || !last.ApproxEq(b) {
				t.Fatalf("seed %d net %d: endpoints %v/%v, want %v/%v",
					seed, ni, first, last, a, b)
			}
			if rt.Wirelength() < a.Dist(b)-1e-6 {
				t.Fatalf("seed %d net %d: wirelength below pin distance", seed, ni)
			}
		}
		// No geometric crossings between different nets (a coarse scan).
		for layer := 0; layer < d.WireLayers; layer++ {
			segs := detail.SegmentsOnLayer(out.DetailResult.Routes, layer)
			for i := 0; i < len(segs); i++ {
				for j := i + 1; j < len(segs); j++ {
					if segs[i].Net == segs[j].Net {
						continue
					}
					for _, s1 := range segs[i].Pl.Segments() {
						for _, s2 := range segs[j].Pl.Segments() {
							if s1.ProperlyIntersects(s2) {
								t.Fatalf("seed %d: nets %d/%d cross on layer %d",
									seed, segs[i].Net, segs[j].Net, layer)
							}
						}
					}
				}
			}
		}
	}
}

func TestGenerateRandomValidation(t *testing.T) {
	if _, err := design.GenerateRandom(design.RandomSpec{Chips: 1}); err == nil {
		t.Error("single-chip random design accepted")
	}
	a, err := design.GenerateRandom(design.RandomSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := design.GenerateRandom(design.RandomSpec{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.IOPads) != len(b.IOPads) || a.Outline != b.Outline {
		t.Error("random generation not deterministic per seed")
	}
	c, err := design.GenerateRandom(design.RandomSpec{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Outline == c.Outline {
		t.Error("different seeds gave identical outlines")
	}
}
