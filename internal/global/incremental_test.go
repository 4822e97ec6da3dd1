package global

import (
	"context"
	"math"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/viaplan"
)

// totalGuideLength sums the nominal lengths of all committed guides.
func totalGuideLength(r *Router, res *Result) float64 {
	var sum float64
	for _, g := range res.Guides {
		if g != nil {
			sum += r.GuideLength(g)
		}
	}
	return sum
}

// TestIncrementalMatchesFullRipUp routes every dense benchmark twice — once
// with the default incremental rip-up and once with FullRipUp — and demands
// identical routability and total guide wirelength. dense2 and dense5 need
// multiple order rounds, so their equality genuinely exercises the dirty-set
// pruning; the single-round cases pin the trivial path.
func TestIncrementalMatchesFullRipUp(t *testing.T) {
	for _, name := range []string{"dense1", "dense2", "dense3", "dense4", "dense5"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			inc := buildRouter(t, name, rgraph.Options{}, Options{})
			incRes, err := inc.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			full := buildRouter(t, name, rgraph.Options{}, Options{FullRipUp: true})
			fullRes, err := full.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if ir, fr := incRes.Routability(), fullRes.Routability(); ir != fr {
				t.Fatalf("routability: incremental %v, full %v", ir, fr)
			}
			il, fl := totalGuideLength(inc, incRes), totalGuideLength(full, fullRes)
			if math.Abs(il-fl) > 1e-9*math.Max(1, fl) {
				t.Fatalf("wirelength: incremental %v, full %v", il, fl)
			}
			if fullRes.KeptGuides != 0 {
				t.Fatalf("full rip-up kept %d guides, want 0", fullRes.KeptGuides)
			}
			if incRes.RipUps > fullRes.RipUps {
				t.Fatalf("incremental ripped %d > full %d", incRes.RipUps, fullRes.RipUps)
			}
			if err := inc.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// mergeSideBySide places design b to the right of design a with a free-space
// gap between them, renumbering b's chips, pads and nets. The two halves
// share no routing resources, so they form independent congestion clusters
// inside one package.
func mergeSideBySide(t *testing.T, aName, bName string, gap float64) *design.Design {
	t.Helper()
	a, err := design.GenerateDense(aName)
	if err != nil {
		t.Fatal(err)
	}
	b, err := design.GenerateDense(bName)
	if err != nil {
		t.Fatal(err)
	}
	if a.WireLayers != b.WireLayers {
		t.Fatalf("wire layer mismatch: %d vs %d", a.WireLayers, b.WireLayers)
	}
	if len(a.Obstacles) != 0 || len(b.Obstacles) != 0 {
		t.Fatal("merge helper does not translate obstacles")
	}
	dx := a.Outline.Max.X - b.Outline.Min.X + gap
	m := &design.Design{
		Name:       aName + "+" + bName,
		Rules:      a.Rules,
		WireLayers: a.WireLayers,
		Outline: geom.R(a.Outline.Min.X, math.Min(a.Outline.Min.Y, b.Outline.Min.Y),
			b.Outline.Max.X+dx, math.Max(a.Outline.Max.Y, b.Outline.Max.Y)),
	}
	m.Chips = append(m.Chips, a.Chips...)
	m.IOPads = append(m.IOPads, a.IOPads...)
	m.BumpPads = append(m.BumpPads, a.BumpPads...)
	m.Nets = append(m.Nets, a.Nets...)
	maxGroup := 0
	for _, n := range a.Nets {
		if n.Group > maxGroup {
			maxGroup = n.Group
		}
	}
	for _, c := range b.Chips {
		c.Name = "b_" + c.Name
		c.Outline = geom.R(c.Outline.Min.X+dx, c.Outline.Min.Y, c.Outline.Max.X+dx, c.Outline.Max.Y)
		m.Chips = append(m.Chips, c)
	}
	for _, p := range b.IOPads {
		p.ID += len(a.IOPads)
		if p.Net >= 0 {
			p.Net += len(a.Nets)
		}
		if p.Chip >= 0 {
			p.Chip += len(a.Chips)
		}
		p.Pos.X += dx
		m.IOPads = append(m.IOPads, p)
	}
	for _, p := range b.BumpPads {
		p.ID += len(a.BumpPads)
		if p.Net >= 0 {
			p.Net += len(a.Nets)
		}
		p.Pos.X += dx
		m.BumpPads = append(m.BumpPads, p)
	}
	for _, n := range b.Nets {
		n.ID += len(a.Nets)
		n.Name = "b_" + n.Name
		n.Pins[0] += len(a.IOPads)
		n.Pins[1] += len(a.IOPads)
		if n.Group != 0 {
			n.Group += maxGroup
		}
		m.Nets = append(m.Nets, n)
	}
	return m
}

// buildRouterFor assembles the stack for an explicit design.
func buildRouterFor(t testing.TB, d *design.Design, opt Options) *Router {
	t.Helper()
	plan, err := viaplan.Build(d, viaplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := rgraph.Build(d, plan, rgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return New(g, opt)
}

// TestIncrementalKeepsGuidesAcrossClusters asserts the dirty-closure pruning
// does real work when congestion is localized: dense2 beside dense1 forms
// two resource-disjoint clusters, dense2's cluster needs rip-up rounds, and
// dense1's guides must survive the boundary untouched — with identical
// routability and wirelength to the full-rip-up ablation, and consistent
// router state after every round.
func TestIncrementalKeepsGuidesAcrossClusters(t *testing.T) {
	// EdgeUsePerNet 2 halves the effective edge capacity, forcing rip-up
	// rounds in the congested dense2 half without touching the topology.
	d := mergeSideBySide(t, "dense2", "dense1", 600)
	var r *Router
	rounds := 0
	r = buildRouterFor(t, d, Options{
		EdgeUsePerNet: 2,
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
	if rounds != res.OrderRounds {
		t.Fatalf("AfterRound ran %d times, OrderRounds = %d", rounds, res.OrderRounds)
	}
	if res.OrderRounds < 2 {
		t.Skip("merged design resolved in one round; nothing to prune")
	}
	if res.KeptGuides == 0 {
		t.Fatalf("multi-round run (%d rounds, %d rip-ups) kept no guides",
			res.OrderRounds, res.RipUps)
	}

	full := buildRouterFor(t, d, Options{EdgeUsePerNet: 2, FullRipUp: true})
	fullRes, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ir, fr := res.Routability(), fullRes.Routability(); ir != fr {
		t.Fatalf("routability: incremental %v, full %v", ir, fr)
	}
	il, fl := totalGuideLength(r, res), totalGuideLength(full, fullRes)
	if math.Abs(il-fl) > 1e-9*math.Max(1, fl) {
		t.Fatalf("wirelength: incremental %v, full %v", il, fl)
	}
	t.Logf("rounds=%d ripups=%d kept=%d (full ripups=%d)",
		res.OrderRounds, res.RipUps, res.KeptGuides, fullRes.RipUps)
}

// TestFullRipUpInvariantsPerRound runs the ablation mode with the same
// per-round invariant assertion.
func TestFullRipUpInvariantsPerRound(t *testing.T) {
	var r *Router
	r = buildRouter(t, "dense2", rgraph.Options{}, Options{
		FullRipUp: true,
		AfterRound: func(round int) {
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		},
	})
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRouteSearchDoesNotAllocate pins the zero-allocation property of the
// A* hot path: after a warm-up run that sizes the scratch buffers, routing a
// net and ripping it back up must stay allocation-free except for the
// returned guide itself. The bound of 4 covers the result's node and link
// slices, the search result header and the committed Guide header. The
// per-tile passage lists keep their capacity across commit and rip-up, and
// the chord memo and open list are reused scratch, so none may allocate.
func TestRouteSearchDoesNotAllocate(t *testing.T) {
	r := buildRouter(t, "dense1", rgraph.Options{}, Options{})
	net := r.G.Design.Nets[0]
	// Warm-up: grows arena, heap and gap buffers to steady state.
	g, err := r.route(r.scratch(), net)
	if err != nil {
		t.Fatal(err)
	}
	r.commit(g)
	r.ripUp(r.guides[g.net])

	allocs := testing.AllocsPerRun(50, func() {
		g, err := r.route(r.scratch(), net)
		if err != nil {
			t.Fatal(err)
		}
		r.commit(g)
		r.ripUp(r.guides[g.net])
	})
	if allocs > 4 {
		t.Fatalf("route+commit+ripUp allocated %.1f allocs/run, want <= 4", allocs)
	}
}
