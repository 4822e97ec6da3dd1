package verify_test

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/router"
	"rdlroute/internal/verify"
)

// routedRandom routes one randomized design (same spec family as the router
// fuzz tests) for the differential checks.
func routedRandom(t *testing.T, seed int64) (*design.Design, []*detail.Route) {
	t.Helper()
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
	out, err := router.Route(context.Background(), d, router.Options{})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return d, out.DetailResult.Routes
}

// TestVerifyDifferentialAgainstDRC fuzzes the verifier against the DRC it
// wraps: on routed random designs, the report's rule findings must mirror
// CheckDRCParallel exactly — same count, same violations (compared by
// their formatted messages, which carry kind, nets, layer, position and
// measured values).
func TestVerifyDifferentialAgainstDRC(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 42}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		d, routes := routedRandom(t, seed)
		drc := detail.CheckDRCParallel(routes, d, detail.DRCOptions{Workers: 1})
		rep := verify.Check(d, routes, verify.Options{Workers: 4})

		var want []string
		for _, v := range drc {
			want = append(want, v.String())
		}
		var got []string
		for _, p := range rep.Problems {
			if p.Kind == verify.RuleViolation {
				got = append(got, p.Msg)
			}
		}
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: verify wraps %d rule findings, DRC reports %d:\nverify: %v\ndrc: %v",
				seed, len(got), len(want), got, want)
		}
	}
}

// TestVerifyParallelMatchesSerial is the verifier half of the tentpole's
// differential guarantee: any pool size produces a byte-identical report.
// Run under -race in the tier-2 CI job, this also proves the fan-out safe.
func TestVerifyParallelMatchesSerial(t *testing.T) {
	seeds := []int64{3, 8, 21}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		d, routes := routedRandom(t, seed)
		serial := verify.Check(d, routes, verify.Options{Workers: 1})
		for _, workers := range []int{2, 4, 8} {
			par := verify.Check(d, routes, verify.Options{Workers: workers})
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("seed %d: %d-worker report differs from serial (%d vs %d findings)",
					seed, workers, len(par.Problems), len(serial.Problems))
			}
		}
	}
}

// TestVerifyReusesSuppliedDRC checks the gate's no-double-run contract: a
// report built from precomputed DRC violations equals one that re-ran the
// checker itself.
func TestVerifyReusesSuppliedDRC(t *testing.T) {
	d, routes := routedRandom(t, 5)
	drc := detail.CheckDRCParallel(routes, d, detail.DRCOptions{Workers: 1})
	own := verify.Check(d, routes, verify.Options{Workers: 1})
	reused := verify.Check(d, routes, verify.Options{Workers: 1, DRC: drc, HaveDRC: true})
	if !reflect.DeepEqual(own, reused) {
		t.Fatalf("report with supplied DRC differs: %d vs %d findings",
			len(reused.Problems), len(own.Problems))
	}
	// HaveDRC with a nil slice means "known clean": no rule findings.
	clean := verify.Check(d, routes, verify.Options{Workers: 1, HaveDRC: true})
	if clean.Count(verify.RuleViolation) != 0 {
		t.Error("HaveDRC with nil violations still produced rule findings")
	}
}
