package global

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/obs"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/viaplan"
)

// runFullRounds is Run without cross-round reuse: the round loop searches
// every pending net in every round. It fills the Result fields Run fills.
func runFullRounds(ctx context.Context, r *Router) *Result {
	order := r.initialOrder(ctx)
	failCount := make([]int, len(r.G.Design.Nets))
	res := &Result{}
	var lastFailed []int
	for round := 0; round < r.Opt.MaxOrderRounds; round++ {
		res.OrderRounds = round + 1
		lastFailed = lastFailed[:0]
		for _, ni := range order {
			if r.guides[ni] != nil {
				continue
			}
			sc := r.scratch()
			g, err := r.route(sc, r.G.Design.Nets[ni])
			r.foldSearch(sc, err)
			if err != nil {
				failCount[ni]++
				lastFailed = append(lastFailed, ni)
				continue
			}
			r.commit(g)
			if r.Opt.AfterEachNet != nil {
				r.Opt.AfterEachNet(ni)
			}
		}
		done := len(lastFailed) == 0 || round == r.Opt.MaxOrderRounds-1
		if !done {
			if r.ripUpForNextRound() == 0 {
				done = true
			} else {
				reorderByFailures(order, failCount)
			}
		}
		if r.Opt.AfterRound != nil {
			r.Opt.AfterRound(round)
		}
		if done {
			break
		}
	}
	if !r.Opt.DisableDiagonalRefinement {
		res.DiagonalReductions = r.refineDiagonal(ctx)
	}
	r.scr = nil
	res.Guides = append([]*Guide(nil), r.guides...)
	for ni, g := range r.guides {
		if g == nil {
			res.FailedNets = append(res.FailedNets, ni)
		}
	}
	res.Expansions = r.expansions
	res.RipUps = r.ripUps
	return res
}

// tracedRun is one routing of a design: the result, one line per commit of
// the round loop (the net, its guide and its position in the sequence of
// every edge node it crosses, which is where its gap put it), and the
// router.
type tracedRun struct {
	r       *Router
	res     *Result
	commits []string
}

// routeTraced routes g with run, recording every commit and checking the
// router's invariants after every round. While reuse state exists, it also
// checks the premise the reuse check rests on: a (net, version) pair names
// one guide, nodes, links and gaps.
func routeTraced(t *testing.T, g *rgraph.Graph, rec obs.Recorder,
	run func(context.Context, *Router) *Result) *tracedRun {
	t.Helper()
	tr := &tracedRun{}
	versions := make(map[[2]int32]string)
	tr.r = New(g, Options{
		Rec: rec,
		AfterEachNet: func(ni int) {
			gd := tr.r.Guide(ni)
			pos := make([]int, 0, len(gd.Nodes))
			for _, id := range gd.Nodes {
				if g.Node(id).Kind == rgraph.EdgeNode {
					pos = append(pos, slices.Index(tr.r.Sequences(id), ni))
				}
			}
			tr.commits = append(tr.commits, fmt.Sprint(ni, gd.Nodes, gd.Links, pos))
			if rs := tr.r.reuse; rs != nil {
				m := &rs.nets[ni]
				key, guide := [2]int32{int32(ni), m.version}, fmt.Sprint(m.guide.nodes, m.guide.links, m.guide.gaps)
				if named, ok := versions[key]; ok && named != guide {
					t.Fatalf("net %d version %d names two guides:\n%s\n%s", ni, m.version, named, guide)
				}
				versions[key] = guide
			}
		},
		AfterRound: func(round int) {
			if err := tr.r.CheckInvariants(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		},
	})
	tr.res = run(context.Background(), tr.r)
	return tr
}

// TestReuseMatchesFullRounds routes every design that takes more than one
// order round twice: with Run, which reuses a net's previous search when
// nothing it read has changed, and with runFullRounds, which searches every
// net in every round. Every commit of the round loop, every final guide and
// edge sequence, the failed nets, the round count and the rip-up count must
// agree, and Run must actually reuse searches. A guide that changes only in
// its gaps moves its net's version too: dense2, dense5 and random1 have
// such commits.
func TestReuseMatchesFullRounds(t *testing.T) {
	designs := []struct {
		name string
		d    func(*testing.T) *design.Design
	}{
		{"dense2", func(t *testing.T) *design.Design { return testDesign(t, "dense2") }},
		{"dense5", func(t *testing.T) *design.Design { return testDesign(t, "dense5") }},
		{"random1", func(t *testing.T) *design.Design { return testDesign(t, "random1") }},
		{"random4", func(t *testing.T) *design.Design { return testDesign(t, "random4") }},
		{"framed-pad", framedPadDesign},
	}
	for _, tc := range designs {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "dense5" {
				t.Skip("large case")
			}
			d := tc.d(t)
			plan, err := viaplan.Build(d, viaplan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			g, err := rgraph.Build(d, plan, rgraph.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.NewCollector()
			got := routeTraced(t, g, rec, func(ctx context.Context, r *Router) *Result {
				res, err := r.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				return res
			})
			want := routeTraced(t, g, nil, runFullRounds)

			if want.res.OrderRounds < 2 {
				t.Fatalf("%d order round; the comparison needs a design that takes more", want.res.OrderRounds)
			}
			reused := rec.Counter("global.astar.reused_searches")
			if reused == 0 {
				t.Fatal("no search was reused; the comparison is vacuous")
			}
			if len(got.commits) != len(want.commits) {
				t.Fatalf("%d commits, full rounds made %d", len(got.commits), len(want.commits))
			}
			for i := range want.commits {
				if got.commits[i] != want.commits[i] {
					t.Fatalf("commit %d differs:\nreuse %s\nfull  %s", i, got.commits[i], want.commits[i])
				}
			}
			for ni := range want.res.Guides {
				a, b := got.res.Guides[ni], want.res.Guides[ni]
				if (a == nil) != (b == nil) ||
					a != nil && (!slices.Equal(a.Nodes, b.Nodes) || !slices.Equal(a.Links, b.Links)) {
					t.Fatalf("net %d: guide %v, full rounds %v", ni, a, b)
				}
			}
			for id := range g.Nodes {
				if !slices.Equal(got.r.Sequences(rgraph.NodeID(id)), want.r.Sequences(rgraph.NodeID(id))) {
					t.Fatalf("node %d: sequence %v, full rounds %v", id,
						got.r.Sequences(rgraph.NodeID(id)), want.r.Sequences(rgraph.NodeID(id)))
				}
			}
			if !slices.Equal(got.res.FailedNets, want.res.FailedNets) ||
				got.res.OrderRounds != want.res.OrderRounds || got.res.RipUps != want.res.RipUps {
				t.Fatalf("failed %v, rounds %d, rip-ups %d; full rounds %v, %d, %d",
					got.res.FailedNets, got.res.OrderRounds, got.res.RipUps,
					want.res.FailedNets, want.res.OrderRounds, want.res.RipUps)
			}
			t.Logf("%d rounds, %d commits, %d searches reused, expansions %d → %d",
				got.res.OrderRounds, len(got.commits), reused, want.res.Expansions, got.res.Expansions)
		})
	}
}

// TestReadBoxPremises checks, on every node of the dense cases and of the
// random-workload designs, the premises that let a search's read boxes
// cover every router state it reads: each neighbour of a node lies within
// reach of it on its layer, or is a cross-via partner at its position on an
// adjacent layer, and so does every vertex and edge node of each tile that
// holds one of its links. "Within reach" is inside the boxes noteRead
// widens when it expands the node on a fresh scratch.
func TestReadBoxPremises(t *testing.T) {
	for _, name := range []string{"dense1", "dense2", "dense3", "dense4", "dense5",
		"random0", "random1", "random2", "random3", "random4", "random5"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (name == "dense4" || name == "dense5") {
				t.Skip("large case")
			}
			r := buildRouterFor(t, testDesign(t, name), Options{})
			g, sc := r.G, r.scratch()
			for id := range g.Nodes {
				u := &g.Nodes[id]
				sc.begin(u.Pos)
				sc.noteRead(g, rgraph.NodeID(id), u)
				within := func(what string, v rgraph.NodeID) {
					if n := g.Node(v); n.Layer != u.Layer || !sc.box[n.Layer].Contains(n.Pos) {
						t.Fatalf("node %d (layer %d, %v, reach %g): %s %d (layer %d, %v) outside its read box",
							id, u.Layer, u.Pos, sc.reach[id], what, v, n.Layer, n.Pos)
					}
				}
				for _, adj := range g.Adj[id] {
					l := g.Link(adj.Link)
					if l.Kind == rgraph.CrossVia {
						n := g.Node(adj.To)
						if u.Kind != rgraph.ViaNode || (n.Layer != u.Layer-1 && n.Layer != u.Layer+1) ||
							n.Pos != u.Pos || !sc.box[n.Layer].Contains(n.Pos) {
							t.Fatalf("node %d: cross-via partner %d is not in its read box at its position on an adjacent layer",
								id, adj.To)
						}
						continue
					}
					within("neighbour", adj.To)
					tile := g.TileOf(l.Layer, l.Tile)
					for k := range 3 {
						within("tile vertex", tile.ViaNodes[k])
						within("tile edge node", tile.EdgeNodes[k])
					}
				}
			}
		})
	}
}

// roundCounts is a collector that also files each delta of one counter
// under the global.round span it arrived in.
type roundCounts struct {
	*obs.Collector
	name    string
	rounds  [][]int64
	inRound bool
	outside int
}

func (c *roundCounts) StageStart(stage string) {
	c.Collector.StageStart(stage)
	if stage == "global.round" {
		c.rounds = append(c.rounds, nil)
		c.inRound = true
	}
}

func (c *roundCounts) StageEnd(stage string, d time.Duration) {
	c.Collector.StageEnd(stage, d)
	if stage == "global.round" {
		c.inRound = false
	}
}

func (c *roundCounts) Count(name string, delta int64) {
	c.Collector.Count(name, delta)
	if name != c.name {
		return
	}
	if !c.inRound {
		c.outside++
		return
	}
	c.rounds[len(c.rounds)-1] = append(c.rounds[len(c.rounds)-1], delta)
}

// TestReusedSearchesPerRound checks the reuse counter on dense2, whose
// second round reuses searches: every global.round span carries exactly one
// global.astar.reused_searches count, and the first round's is zero.
func TestReusedSearchesPerRound(t *testing.T) {
	rec := &roundCounts{Collector: obs.NewCollector(), name: "global.astar.reused_searches"}
	res, err := buildRouter(t, "dense2", rgraph.Options{}, Options{Rec: rec}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.outside != 0 || len(rec.rounds) != res.OrderRounds || res.OrderRounds < 2 {
		t.Fatalf("%d counts outside a round, %d round spans, %d order rounds", rec.outside, len(rec.rounds), res.OrderRounds)
	}
	var total int64
	for i, deltas := range rec.rounds {
		if len(deltas) != 1 {
			t.Fatalf("round %d: %d reused_searches counts, want 1", i, len(deltas))
		}
		if i == 0 && deltas[0] != 0 {
			t.Fatalf("round 0 reused %d searches", deltas[0])
		}
		total += deltas[0]
	}
	if total == 0 {
		t.Fatal("no search was reused")
	}
}

// TestRunReleasesSearchState checks that the router holds neither the A*
// scratch nor the reuse state once Run returns: pipeline results keep the
// router alive. The reuse state must exist in every round before that.
func TestRunReleasesSearchState(t *testing.T) {
	var r *Router
	held := 0
	r = buildRouter(t, "dense2", rgraph.Options{}, Options{
		AfterRound: func(int) {
			if r.reuse != nil && r.scr != nil {
				held++
			}
		},
	})
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if held != res.OrderRounds {
		t.Fatalf("scratch and reuse state present in %d of %d rounds", held, res.OrderRounds)
	}
	if r.scr != nil || r.reuse != nil {
		t.Fatalf("after Run: scratch held %v, reuse state held %v; want both dropped", r.scr != nil, r.reuse != nil)
	}
}

// TestReusedSearchAllocatesOnlyTheGuide pins what a reused search costs:
// committing the stored guide allocates the Guide header commit always
// makes, and nothing else, neither nodes and links nor a search result.
func TestReusedSearchAllocatesOnlyTheGuide(t *testing.T) {
	r := buildRouter(t, "dense1", rgraph.Options{}, Options{})
	rs := newReuseState(len(r.G.Design.Nets), len(r.G.Layers))
	r.reuse = rs
	failCount := make([]int, len(r.G.Design.Nets))
	var lastFailed []int
	order := r.initialOrder(context.Background())
	rs.beginRound(true)
	for _, ni := range order {
		r.routeOne(ni, failCount, &lastFailed, false)
	}
	r.ripUpForNextRound()
	rs.beginRound(true)
	// The first net of a round meets an empty board, as it did last round,
	// so each call reuses its search; the rip-up and log reset restore that.
	ni := order[0]
	allocs := testing.AllocsPerRun(50, func() {
		rs.cur = rs.cur[:0]
		r.routeOne(ni, failCount, &lastFailed, false)
		r.ripUp(r.guides[ni])
	})
	if rs.reused != 51 {
		t.Fatalf("%d of 51 calls reused the search", rs.reused)
	}
	if allocs > 1 {
		t.Fatalf("a reused search allocated %.1f allocs/run, want 1 (the Guide header)", allocs)
	}
}
