package router

import (
	"context"
	"maps"
	"math"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/verify"
)

// golden pins the headline metrics of the deterministic pipeline. The exact
// wirelengths move whenever an algorithm detail changes — update the table
// deliberately when that happens (tolerances absorb float-level drift, not
// behavioural change). The DRC, via and verify counts are exact: they form
// a ratchet, and a change that lowers one updates its pin. verifyOwn counts
// the verifier's own findings, those other than the DRC rule findings it
// re-reports. drcKinds and verifyKinds split the same ratchet by kind name
// (detail.ViolationKind over Output.Violations, and VerifyReport.Counts());
// kinds with no findings are omitted.
var golden = []struct {
	name        string
	wirelength  float64 // µm, ±2%
	drc         int
	vias        int
	verifyOwn   int
	routability float64
	drcKinds    map[string]int
	verifyKinds map[string]int
}{
	{name: "dense1", wirelength: 18740, drc: 24, vias: 32, verifyOwn: 0, routability: 1,
		drcKinds:    map[string]int{"spacing": 23, "turn-distance": 1},
		verifyKinds: map[string]int{"rule": 24}},
	{name: "dense2", wirelength: 51742, drc: 34, vias: 52, verifyOwn: 0, routability: 1,
		drcKinds:    map[string]int{"spacing": 30, "angle": 4},
		verifyKinds: map[string]int{"rule": 34}},
	{name: "dense3", wirelength: 79930, drc: 31, vias: 102, verifyOwn: 0, routability: 1,
		drcKinds:    map[string]int{"spacing": 26, "angle": 1, "turn-distance": 4},
		verifyKinds: map[string]int{"rule": 31}},
	{name: "dense4", wirelength: 120131, drc: 88, vias: 204, verifyOwn: 0, routability: 1,
		drcKinds:    map[string]int{"spacing": 78, "angle": 8, "turn-distance": 2},
		verifyKinds: map[string]int{"rule": 88}},
	{name: "dense5", wirelength: 321335, drc: 378, vias: 542, verifyOwn: 3, routability: 1,
		drcKinds:    map[string]int{"spacing": 344, "angle": 23, "turn-distance": 11},
		verifyKinds: map[string]int{"rule": 378, "via-wire-spacing": 3}},
}

func TestGoldenMetrics(t *testing.T) {
	for _, g := range golden {
		if testing.Short() && (g.name == "dense4" || g.name == "dense5") {
			continue
		}
		d, err := design.GenerateDense(g.name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Route(context.Background(), d, Options{Verify: VerifyWarn})
		if err != nil {
			t.Fatal(err)
		}
		m := out.Metrics
		if m.Routability != g.routability {
			t.Errorf("%s: routability = %v, want %v", g.name, m.Routability, g.routability)
		}
		if math.Abs(m.Wirelength-g.wirelength) > 0.02*g.wirelength {
			t.Errorf("%s: wirelength = %.0f, golden %.0f (±2%%)", g.name, m.Wirelength, g.wirelength)
		}
		if m.DRCViolations != g.drc {
			t.Errorf("%s: DRC = %d, pinned %d", g.name, m.DRCViolations, g.drc)
		}
		if m.Vias != g.vias {
			t.Errorf("%s: vias = %d, pinned %d", g.name, m.Vias, g.vias)
		}
		if own := m.VerifyFindings - out.VerifyReport.Count(verify.RuleViolation); own != g.verifyOwn {
			t.Errorf("%s: verify findings beyond DRC = %d, pinned %d (%v)",
				g.name, own, g.verifyOwn, out.VerifyReport.Counts())
		}
		drcKinds := make(map[string]int)
		for _, v := range out.Violations {
			drcKinds[v.Kind.String()]++
		}
		if !maps.Equal(drcKinds, g.drcKinds) {
			t.Errorf("%s: DRC by kind = %v, pinned %v", g.name, drcKinds, g.drcKinds)
		}
		if got := out.VerifyReport.Counts(); !maps.Equal(got, g.verifyKinds) {
			t.Errorf("%s: verify by kind = %v, pinned %v", g.name, got, g.verifyKinds)
		}
	}
}

// TestRunToRunIdentical verifies full determinism of the pipeline: two runs
// of the same design produce byte-identical geometry.
func TestRunToRunIdentical(t *testing.T) {
	run := func() *Output {
		d, err := design.GenerateDense("dense2")
		if err != nil {
			t.Fatal(err)
		}
		out, err := Route(context.Background(), d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Metrics.Wirelength != b.Metrics.Wirelength {
		t.Fatalf("wirelength differs: %v vs %v", a.Metrics.Wirelength, b.Metrics.Wirelength)
	}
	for ni := range a.DetailResult.Routes {
		ra, rb := a.DetailResult.Routes[ni], b.DetailResult.Routes[ni]
		if (ra == nil) != (rb == nil) {
			t.Fatalf("net %d presence differs", ni)
		}
		if ra == nil {
			continue
		}
		if len(ra.Segs) != len(rb.Segs) {
			t.Fatalf("net %d segment count differs", ni)
		}
		for si := range ra.Segs {
			if len(ra.Segs[si].Pl) != len(rb.Segs[si].Pl) {
				t.Fatalf("net %d seg %d vertex count differs", ni, si)
			}
			for pi := range ra.Segs[si].Pl {
				if ra.Segs[si].Pl[pi] != rb.Segs[si].Pl[pi] {
					t.Fatalf("net %d seg %d vertex %d differs", ni, si, pi)
				}
			}
		}
	}
}
