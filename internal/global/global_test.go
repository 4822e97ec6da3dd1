package global

import (
	"context"
	"errors"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/viaplan"
)

// buildRouter assembles the full stack for a benchmark design.
func buildRouter(t testing.TB, name string, gopt rgraph.Options, opt Options) *Router {
	t.Helper()
	d, err := design.GenerateDense(name)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := viaplan.Build(d, viaplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := rgraph.Build(d, plan, gopt)
	if err != nil {
		t.Fatal(err)
	}
	return New(g, opt)
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

func TestRouteDense1FullRoutability(t *testing.T) {
	r := buildRouter(t, "dense1", rgraph.Options{}, Options{})
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Routability(); got != 1 {
		t.Fatalf("routability = %v, failed nets %v", got, res.FailedNets)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every guide starts and ends at its net's pins.
	for ni, g := range res.Guides {
		net := r.G.Design.Nets[ni]
		src, dst, err := r.G.NetPins(net)
		if err != nil {
			t.Fatal(err)
		}
		if g.Nodes[0] != src {
			t.Errorf("net %d guide starts at %d, want %d", ni, g.Nodes[0], src)
		}
		if g.Nodes[len(g.Nodes)-1] != dst {
			t.Errorf("net %d guide ends at %d, want %d", ni, g.Nodes[len(g.Nodes)-1], dst)
		}
		if len(g.Links) != len(g.Nodes)-1 {
			t.Errorf("net %d guide has %d links for %d nodes", ni, len(g.Links), len(g.Nodes))
		}
	}
}

func TestGuidesDoNotCross(t *testing.T) {
	r := buildRouter(t, "dense1", rgraph.Options{}, Options{})
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// For every tile, all pairs of committed passages must not interleave.
	for li := range r.G.Layers {
		for tri := range r.G.Layers[li].Tiles {
			key := tileKey{li, tri}
			tile := r.G.TileOf(li, tri)
			ps := r.passages[r.tileIndex(li, tri)]
			for i := 0; i < len(ps); i++ {
				e1a, ok1 := r.resolve(tile, ps[i].e1, ps[i].net)
				e1b, ok2 := r.resolve(tile, ps[i].e2, ps[i].net)
				if !ok1 || !ok2 {
					t.Fatalf("tile %v: passage %d unresolvable", key, i)
				}
				a1, a2 := r.coord(tile, e1a), r.coord(tile, e1b)
				for j := i + 1; j < len(ps); j++ {
					if ps[j].net == ps[i].net {
						continue // same-net crossings are legal (no spacing rule)
					}
					e2a, ok3 := r.resolve(tile, ps[j].e1, ps[j].net)
					e2b, ok4 := r.resolve(tile, ps[j].e2, ps[j].net)
					if !ok3 || !ok4 {
						t.Fatalf("tile %v: passage %d unresolvable", key, j)
					}
					b1, b2 := r.coord(tile, e2a), r.coord(tile, e2b)
					if chordsCross(a1, a2, b1, b2) {
						t.Fatalf("tile %v: nets %d and %d cross (coords %v-%v vs %v-%v)",
							key, ps[i].net, ps[j].net, a1, a2, b1, b2)
					}
				}
			}
		}
	}
}

func TestGuidePathStructure(t *testing.T) {
	r := buildRouter(t, "dense1", rgraph.Options{}, Options{})
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for ni, g := range res.Guides {
		if g == nil {
			continue
		}
		for i, l := range g.Links {
			link := r.G.Link(l)
			a, b := g.Nodes[i], g.Nodes[i+1]
			if !(link.A == a && link.B == b) && !(link.A == b && link.B == a) {
				t.Fatalf("net %d: link %d does not join nodes %d-%d", ni, l, a, b)
			}
		}
		// No node repeats.
		seen := map[rgraph.NodeID]bool{}
		for _, n := range g.Nodes {
			if seen[n] {
				t.Fatalf("net %d revisits node %d", ni, n)
			}
			seen[n] = true
		}
		// Via nodes used mid-path are real vias entered and left correctly.
		for i := 1; i+1 < len(g.Nodes); i++ {
			n := r.G.Node(g.Nodes[i])
			if n.Kind != rgraph.ViaNode {
				continue
			}
			if n.VertKind != viaplan.KindVia {
				t.Fatalf("net %d passes through non-via vertex kind %v", ni, n.VertKind)
			}
			prev := r.G.Link(g.Links[i-1]).Kind
			next := r.G.Link(g.Links[i]).Kind
			if prev == next {
				t.Fatalf("net %d enters and leaves via by the same link kind %v", ni, prev)
			}
		}
	}
}

func TestDiagonalViolationsCleared(t *testing.T) {
	r := buildRouter(t, "dense1", rgraph.Options{}, Options{})
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v := r.DiagonalViolations(); v != 0 {
		t.Errorf("diagonal violations after refinement = %d, want 0", v)
	}
}

func TestRipUpRestoresState(t *testing.T) {
	r := buildRouter(t, "dense1", rgraph.Options{}, Options{})
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Rip up every guide; all usage must return to zero.
	for _, g := range res.Guides {
		if g != nil {
			r.ripUp(r.guides[g.Net])
		}
	}
	for id, u := range r.nodeUse {
		if u != 0 {
			t.Fatalf("node %d usage %d after full rip-up", id, u)
		}
	}
	for id, u := range r.linkUse {
		if u != 0 {
			t.Fatalf("link %d usage %d after full rip-up", id, u)
		}
	}
	for id, s := range r.seqs {
		if len(s) != 0 {
			t.Fatalf("edge node %d sequence %v after full rip-up", id, s)
		}
	}
	for ti, ps := range r.passages {
		if len(ps) != 0 {
			t.Fatalf("tile %d passages %v after full rip-up", ti, ps)
		}
	}
}

func TestNaiveOrderStillRoutes(t *testing.T) {
	r := buildRouter(t, "dense1", rgraph.Options{}, Options{DisableRUDYOrder: true})
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Routability() < 0.9 {
		t.Errorf("naive-order routability = %v, want ≥ 0.9", res.Routability())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestContextCancelAborts(t *testing.T) {
	// Cancel mid-global-route (after the second committed net): Run must
	// return the partial result together with ctx.Err(), and every
	// committed guide must still satisfy the invariants.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	committed := 0
	var r *Router
	r = buildRouter(t, "dense1", rgraph.Options{}, Options{
		AfterEachNet: func(*Router, int) {
			committed++
			if committed == 2 {
				cancel()
			}
		},
	})
	res, err := r.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancellation must still return the partial result")
	}
	if got := len(res.Guides) - len(res.FailedNets); got != 2 {
		t.Errorf("routed %d nets before cancel, want exactly 2", got)
	}
	if res.Routability() == 1 {
		t.Error("cancelled run must not reach full routability")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPreCancelledContextRoutesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := buildRouter(t, "dense1", rgraph.Options{}, Options{})
	res, err := r.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := len(res.Guides) - len(res.FailedNets); n != 0 {
		t.Errorf("pre-cancelled run routed %d nets, want 0", n)
	}
}

func TestGuideLength(t *testing.T) {
	r := buildRouter(t, "dense1", rgraph.Options{}, Options{})
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for ni, g := range res.Guides {
		if g == nil {
			continue
		}
		l := r.GuideLength(g)
		hp := r.netPinDist(ni)
		if l <= 0 {
			t.Errorf("net %d guide length %v", ni, l)
		}
		// A guide is never shorter than ~the pin distance minus slack from
		// node-midpoint geometry. Allow generous slack; the point is sanity.
		if l < hp/3 {
			t.Errorf("net %d guide length %v implausibly below pin distance %v", ni, l, hp)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []float64 {
		r := buildRouter(t, "dense1", rgraph.Options{}, Options{})
		res, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(res.Guides))
		for ni, g := range res.Guides {
			if g != nil {
				out[ni] = r.GuideLength(g)
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("net %d guide length differs between runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestResultRoutabilityEmpty(t *testing.T) {
	r := &Result{}
	if r.Routability() != 1 {
		t.Error("empty result should report full routability")
	}
}

// TestInvariantsPerRound asserts CheckInvariants after every net-order
// adjustment round of a design that needs more than one.
func TestInvariantsPerRound(t *testing.T) {
	var r *Router
	rounds := 0
	r = buildRouter(t, "dense2", rgraph.Options{}, Options{
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
	if rounds != res.OrderRounds || rounds < 2 {
		t.Fatalf("AfterRound ran %d times, OrderRounds = %d, want equal and ≥ 2", rounds, res.OrderRounds)
	}
}

// TestSequenceRoomFollowsUse pins that the net-sequence lists are sized by
// what a route puts on them, not by the Eq. 1 capacity of their edge nodes:
// after a dense3 Run their rooms together hold under 5% of the summed
// capacity.
func TestSequenceRoomFollowsUse(t *testing.T) {
	r := buildRouter(t, "dense3", rgraph.Options{}, Options{})
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	used, room, capacity := 0, 0, 0
	for id := range r.G.Nodes {
		if r.G.Nodes[id].Kind != rgraph.EdgeNode {
			continue
		}
		seq := r.Sequences(rgraph.NodeID(id))
		used += len(seq)
		room += cap(seq)
		capacity += int(r.G.Nodes[id].Cap)
	}
	t.Logf("dense3: %d sequence entries in %d rooms, against a capacity of %d", used, room, capacity)
	if used == 0 || room*20 >= capacity {
		t.Fatalf("sequence rooms hold %d entries (%d used), want under 5%% of the capacity %d",
			room, used, capacity)
	}
}
