package detail_test

import (
	"context"
	"maps"
	"math/rand"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/router"
	"rdlroute/internal/verify"
)

// randomWorkloadDesigns draws the six designs of the benchmark's random
// workload the way cmd/rdlbench's randomPool(1, 6) does: the generator
// seed, chip count (2–6), nets per channel (8–24) and wire layers (2–3) of
// each design come from one source seeded with 1.
func randomWorkloadDesigns(t *testing.T) []*design.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ds := make([]*design.Design, 6)
	for i := range ds {
		d, err := design.GenerateRandom(design.RandomSpec{
			Seed:           rng.Int63(),
			Chips:          2 + rng.Intn(5),
			NetsPerChannel: 8 + rng.Intn(17),
			WireLayers:     2 + rng.Intn(2),
		})
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	return ds
}

// TestViaWireIndexMatchesVerify routes dense1–5 and the random workload's
// six designs and compares two sets of via–wire pairs on the final routes:
// the pairs verify reports as via-wire spacing findings, and the pairs the
// legality index's via query refuses. Verify is the independent
// brute-force check; the index is what polish and reassignment ask, so the
// two must be equal. dense5 carries findings, so the comparison covers
// real pairs as well as their absence.
func TestViaWireIndexMatchesVerify(t *testing.T) {
	var designs []*design.Design
	for _, name := range design.DenseNames() {
		if testing.Short() && (name == "dense4" || name == "dense5") {
			continue
		}
		d, err := design.GenerateDense(name)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}
	designs = append(designs, randomWorkloadDesigns(t)...)
	pairs := 0
	for _, d := range designs {
		out, err := router.Route(context.Background(), d, router.Options{Verify: router.VerifyWarn})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		want := make(map[detail.ViaWirePair]bool)
		for _, p := range out.VerifyReport.Problems {
			if p.Kind == verify.ViaWireSpacing {
				want[detail.ViaWirePair{Via: p.Net, Wire: p.Other, Pos: p.Where}] = true
			}
		}
		if got := detail.RefusedViaWirePairs(out.DetailResult.Routes, d); !maps.Equal(got, want) {
			t.Errorf("%s: the legality index refuses %d via-wire pairs, verify reports %d:\nindex  %v\nverify %v",
				d.Name, len(got), len(want), got, want)
		}
		t.Logf("%s: %d via-wire pairs", d.Name, len(want))
		pairs += len(want)
	}
	if pairs == 0 && !testing.Short() {
		t.Error("no via-wire pair on any design: the comparison is vacuous")
	}
}
