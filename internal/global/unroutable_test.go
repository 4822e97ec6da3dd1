package global

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/obs"
	"rdlroute/internal/rgraph"
)

// framedPadDesign is dense1 with net 0's target pad enclosed by four
// keep-out bars on every layer, 1.5 to 2.5 pitches from the pad. None of
// them covers the pad, so the design is valid, but the net can never route.
func framedPadDesign(t *testing.T) *design.Design {
	t.Helper()
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	pad := d.IOPads[d.Nets[0].Pins[1]].Pos
	in, out := 1.5*d.Rules.Pitch(), 2.5*d.Rules.Pitch()
	for i, rect := range []geom.Rect{
		geom.R(pad.X-out, pad.Y+in, pad.X+out, pad.Y+out),
		geom.R(pad.X-out, pad.Y-out, pad.X+out, pad.Y-in),
		geom.R(pad.X-out, pad.Y-in, pad.X-in, pad.Y+in),
		geom.R(pad.X+in, pad.Y-in, pad.X+out, pad.Y+in),
	} {
		if err := d.AddObstacle(design.Obstacle{Name: fmt.Sprintf("frame%d", i), Rect: rect}); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestNeverRoutableNetRunsEveryRound routes a design with one net that can
// never route. Full rip-up reroutes it every round, so the loop runs all
// MaxOrderRounds; the router state must stay consistent after each round,
// and every other net must route.
func TestNeverRoutableNetRunsEveryRound(t *testing.T) {
	rec := obs.NewCollector()
	var r *Router
	rounds := 0
	r = buildRouterFor(t, framedPadDesign(t), Options{
		Rec: rec,
		AfterRound: func(round int) {
			rounds++
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		},
	})
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.FailedNets, []int{0}) {
		t.Fatalf("failed nets %v, want [0]", res.FailedNets)
	}
	for ni, g := range res.Guides {
		if (g == nil) != (ni == 0) {
			t.Fatalf("net %d: guide %v", ni, g)
		}
	}
	if res.OrderRounds != r.Opt.MaxOrderRounds || rounds != res.OrderRounds {
		t.Fatalf("order rounds %d, AfterRound calls %d, want %d", res.OrderRounds, rounds, r.Opt.MaxOrderRounds)
	}
	// The framed pad is unreachable, so its searches run out of states
	// instead of rejecting a popped target.
	if n := rec.Counter("global.astar.revisit_failures"); n != 0 {
		t.Errorf("revisit failures %d, want 0", n)
	}
	t.Logf("rounds %d, expansions %d, failed searches %d", res.OrderRounds, res.Expansions,
		rec.Counter("global.astar.failed_searches"))
}

// TestEveryNetFailingStopsAfterOneRound gives every guide more units than
// any edge node holds, so every search fails. With nothing committed there
// is nothing to rip up, and the next round would search the same empty
// state, so Run stops after one round.
func TestEveryNetFailingStopsAfterOneRound(t *testing.T) {
	r := buildRouter(t, "dense1", rgraph.Options{}, Options{EdgeUsePerNet: 1 << 20})
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedNets) != len(r.G.Design.Nets) {
		t.Fatalf("failed nets %v, want all %d", res.FailedNets, len(r.G.Design.Nets))
	}
	if res.OrderRounds != 1 || res.RipUps != 0 {
		t.Fatalf("order rounds %d, rip-ups %d, want 1 and 0", res.OrderRounds, res.RipUps)
	}
}

// TestRevisitFailuresCounted checks the failure-cause counter on dense2,
// whose two failed searches each end at a target reached by a path that
// visits a node twice.
func TestRevisitFailuresCounted(t *testing.T) {
	rec := obs.NewCollector()
	r := buildRouter(t, "dense2", rgraph.Options{}, Options{Rec: rec})
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	failed := rec.Counter("global.astar.failed_searches")
	if revisit := rec.Counter("global.astar.revisit_failures"); failed != 2 || revisit != 2 {
		t.Fatalf("failed searches %d, revisit failures %d, want 2 and 2", failed, revisit)
	}
}
