package global

import (
	"context"
	"slices"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/rgraph"
)

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

// referenceRoute is route without the early exit: when reconstruct refuses
// the target it keeps popping states until the open list is empty or the
// expansion budget is spent. It also reports how often it popped a live
// target state.
func referenceRoute(r *Router, sc *searchScratch, net design.Net) (*searchResult, int, error) {
	src, dst, err := r.G.NetPins(net)
	if err != nil {
		return nil, 0, err
	}
	sc.begin(r.G.Node(dst).Pos, r.edgeUnits(net.ID))
	r.push(sc, stateKey{node: src, gap: -1}, 0, -1, -1)
	targetPops, expanded := 0, 0
	for sc.open.Len() > 0 {
		si := sc.open.Pop()
		st := sc.arena[si]
		if st.g > sc.bestG[sc.slot(st.key)] {
			continue
		}
		if st.key.node == dst {
			targetPops++
			if res, ok := r.reconstruct(sc, net.ID, si); ok {
				return res, targetPops, nil
			}
			continue // self-intersecting path; keep searching
		}
		expanded++
		if expanded > r.Opt.MaxExpansions {
			break
		}
		if r.G.Node(st.key.node).Kind == rgraph.ViaNode {
			r.expandVia(sc, st, si, net.ID)
		} else {
			r.expandEdge(sc, st, si, net.ID, dst)
		}
	}
	return nil, targetPops, ErrUnroutable
}

// TestEarlyExitMatchesFullSearch runs route beside referenceRoute on every
// search of round 0, committing each found guide as the round loop does.
// Each pair must fail alike or return the same nodes, links and gaps, and
// the full search must never pop its target twice: that is the premise
// that lets route stop at its first rejected target.
func TestEarlyExitMatchesFullSearch(t *testing.T) {
	for _, name := range []string{"dense2", "random1", "dense5"} {
		if testing.Short() && name == "dense5" {
			continue
		}
		r := buildRouterFor(t, testDesign(t, name), Options{})
		ref := newSearchScratch(r.G, len(r.passages))
		rejected := 0
		for _, ni := range r.initialOrder(context.Background()) {
			net := r.G.Design.Nets[ni]
			want, pops, wantErr := referenceRoute(r, ref, net)
			got, err := r.route(r.scratch(), net)
			if pops > 1 {
				t.Fatalf("%s net %d: full search popped its target %d times", name, ni, pops)
			}
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s net %d: early exit err %v, full search err %v", name, ni, err, wantErr)
			}
			if r.scratch().revisit != (pops == 1 && wantErr != nil) {
				t.Fatalf("%s net %d: revisit %v after %d target pops (err %v)",
					name, ni, r.scratch().revisit, pops, wantErr)
			}
			if err != nil {
				if pops == 1 {
					rejected++
				}
				continue
			}
			if !slices.Equal(got.nodes, want.nodes) || !slices.Equal(got.links, want.links) ||
				!slices.Equal(got.gaps, want.gaps) {
				t.Fatalf("%s net %d: guides differ\nearly exit %v %v %v\nfull       %v %v %v",
					name, ni, got.nodes, got.links, got.gaps, want.nodes, want.links, want.gaps)
			}
			r.commit(got)
		}
		t.Logf("%s: %d searches ended at a rejected target", name, rejected)
		if rejected == 0 {
			t.Errorf("%s: no search of round 0 rejected its target; the comparison is vacuous", name)
		}
	}
}

// TestScoreboardSizedBySearch pins that the A* scoreboard holds only the
// nodes a search touched: after every search of a dense3 Run, the bestG
// slab holds len(seq)+1 slots for each distinct edge node in the arena and
// two for each via node, and nothing for the rest of the graph.
func TestScoreboardSizedBySearch(t *testing.T) {
	r := buildRouter(t, "dense3", rgraph.Options{}, Options{})
	searches, largest := 0, 0
	seen := make(map[rgraph.NodeID]bool)
	r.searched = func(sc *searchScratch) {
		searches++
		clear(seen)
		want := 0
		for _, st := range sc.arena {
			if seen[st.key.node] {
				continue
			}
			seen[st.key.node] = true
			if r.G.Node(st.key.node).Kind == rgraph.EdgeNode {
				want += len(r.seqs[st.key.node]) + 1
			} else {
				want += 2
			}
		}
		if len(sc.bestG) != want {
			t.Fatalf("search %d: scoreboard holds %d slots, its %d arena nodes need %d",
				searches, len(sc.bestG), len(seen), want)
		}
		largest = max(largest, want)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if searches == 0 {
		t.Fatal("no search ran")
	}
	t.Logf("%d searches, at most %d scoreboard slots", searches, largest)
}
