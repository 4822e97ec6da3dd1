package global

import (
	"context"
	"fmt"
	"math/bits"
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

// multiRoundDesigns are the designs that take more than one order round,
// so the round loop has searches to reuse.
var multiRoundDesigns = []struct {
	name string
	d    func(*testing.T) *design.Design
}{
	{"dense2", func(t *testing.T) *design.Design { return testDesign(t, "dense2") }},
	{"dense5", func(t *testing.T) *design.Design { return testDesign(t, "dense5") }},
	{"random1", func(t *testing.T) *design.Design { return testDesign(t, "random1") }},
	{"random4", func(t *testing.T) *design.Design { return testDesign(t, "random4") }},
	{"framed-pad", framedPadDesign},
}

// TestReuseMatchesFullRounds routes every design that takes more than one
// order round twice: with Run, which reuses a net's previous search when
// nothing it read has changed, and with runFullRounds, which searches every
// net in every round. Every commit of the round loop, every final guide and
// edge sequence, the failed nets, the round count and the rip-up count must
// agree, and Run must actually reuse searches. A guide that changes only in
// its gaps moves its net's version too: dense2, dense5 and random1 have
// such commits. The expansions Run reports as saved by its reuses must make
// up the whole difference to the full rounds' expansions.
func TestReuseMatchesFullRounds(t *testing.T) {
	for _, tc := range multiRoundDesigns {
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
			if saved := rec.Counter("global.astar.reused_expansions"); int64(got.res.Expansions)+saved != int64(want.res.Expansions) {
				t.Fatalf("%d expansions run and %d reported saved; full rounds ran %d",
					got.res.Expansions, saved, want.res.Expansions)
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

// TestReadSetPremises checks, on every node and link of the dense cases and
// of the random-workload designs, the premises the read set rests on.
// Expanding a start state at node u must mark each neighbour of u, whose
// usage, capacity and sequence the expansion reads, and every edge node
// other than u of each tile holding one of u's links, whose sequences
// resolve that tile's passages; route marks u itself, as checkRouteMarks
// checks. The marks must not depend on a capacity check, so each node is
// expanded on the empty board and again on the board Run leaves, where many
// links are full. Every access-via and cross-tile link must have an end
// among its tile's edge nodes, so a commit writes a tile's passages, and the
// usage of a link at an expanded node, only through a link into or out of a
// marked node.
func TestReadSetPremises(t *testing.T) {
	for _, name := range []string{"dense1", "dense2", "dense3", "dense4", "dense5",
		"random0", "random1", "random2", "random3", "random4", "random5"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (name == "dense4" || name == "dense5") {
				t.Skip("large case")
			}
			r := buildRouterFor(t, testDesign(t, name), Options{})
			g := r.G
			for id := range g.Links {
				l := g.Link(id)
				if l.Kind == rgraph.CrossVia {
					continue
				}
				ens := g.TileOf(int(l.Layer), int(l.Tile)).EdgeNodes
				if !slices.Contains(ens[:], l.A) && !slices.Contains(ens[:], l.B) {
					t.Fatalf("%v link %d (%d–%d) has no end among its tile's edge nodes %v", l.Kind, id, l.A, l.B, ens)
				}
			}
			checkRouteMarks(t, r)
			checkExpansionMarks(t, r, "empty board")
			if _, err := r.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			checkExpansionMarks(t, r, "routed board")
		})
	}
}

// checkRouteMarks runs the first net's search and checks that every node
// it expanded, the parent of some pushed state, is in its read set.
func checkRouteMarks(t *testing.T, r *Router) {
	t.Helper()
	sc := r.scratch()
	if _, err := r.route(sc, r.G.Design.Nets[0]); err != nil {
		t.Fatal(err)
	}
	for _, st := range sc.arena {
		if st.parent >= 0 && !marked(sc.read, sc.arena[st.parent].key.node) {
			t.Fatalf("expanded node %d is not in the search's read set", sc.arena[st.parent].key.node)
		}
	}
}

// checkExpansionMarks expands a start state at every node, each on a
// scratch readied for a new search, and checks the marks the expansion
// leaves. It logs how many of the expanded links were full.
func checkExpansionMarks(t *testing.T, r *Router, board string) {
	t.Helper()
	g := r.G
	sc := newSearchScratch(g, len(r.passages))
	net := g.Design.Nets[0]
	_, dst, err := g.NetPins(net)
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	for id := range g.Nodes {
		u := rgraph.NodeID(id)
		n := g.Node(u)
		sc.begin(g.Node(dst).Pos, r.edgeUnits(net.ID))
		key := stateKey{node: u, gap: -1}
		if n.Kind == rgraph.EdgeNode {
			key.gap = 0
		}
		r.push(sc, key, 0, -1, -1)
		if n.Kind == rgraph.ViaNode {
			r.expandVia(sc, sc.arena[0], 0, net.ID)
		} else {
			r.expandEdge(sc, sc.arena[0], 0, net.ID, dst)
		}
		need := func(what string, v rgraph.NodeID) {
			if !marked(sc.read, v) {
				t.Fatalf("%s: node %d (kind %d, layer %d): %s %d is not in its read set",
					board, id, n.Kind, n.Layer, what, v)
			}
		}
		for _, adj := range g.Neighbors(rgraph.NodeID(id)) {
			l := g.Link(int(adj.Link))
			if r.linkUse[adj.Link] >= int(l.Cap) {
				full++
			}
			need("neighbour", adj.To)
			if l.Kind == rgraph.CrossVia {
				continue
			}
			for _, e := range g.TileOf(int(l.Layer), int(l.Tile)).EdgeNodes {
				if e != u {
					need("tile edge node", e)
				}
			}
		}
	}
	t.Logf("%s: %d expanded links were full", board, full)
}

// TestSameFootprint checks the footprint comparison on two guides of one
// net: a change of gap at a marked node, or of a link into or out of one,
// tells them apart, and a change that leaves the read set alone does not.
func TestSameFootprint(t *testing.T) {
	// The path runs 1-2-3-4-5 over links 10-13; the set marks 2 and 3.
	read := []uint64{1<<2 | 1<<3}
	base := func() *searchResult {
		return &searchResult{
			nodes: []rgraph.NodeID{1, 2, 3, 4, 5},
			links: []int{10, 11, 12, 13},
			gaps:  []int{-1, 0, 1, 0, -1},
		}
	}
	for _, tc := range []struct {
		name string
		edit func(*searchResult)
		same bool
	}{
		{"identical", func(*searchResult) {}, true},
		{"gap at a marked node", func(g *searchResult) { g.gaps[2] = 2 }, false},
		{"link into a marked node", func(g *searchResult) { g.links[0] = 20 }, false},
		{"link between marked nodes", func(g *searchResult) { g.links[1] = 21 }, false},
		{"link out of a marked node", func(g *searchResult) { g.links[2] = 22 }, false},
		{"marked node left out", func(g *searchResult) {
			g.nodes, g.links, g.gaps = []rgraph.NodeID{1, 2, 4, 5}, []int{10, 11, 13}, []int{-1, 0, 0, -1}
		}, false},
		{"gap outside the set", func(g *searchResult) { g.gaps[3] = 1 }, true},
		{"link outside the set", func(g *searchResult) { g.links[3] = 23 }, true},
		{"path outside the set", func(g *searchResult) {
			g.nodes, g.links, g.gaps = []rgraph.NodeID{6, 1, 2, 3, 4, 7, 8}, []int{14, 10, 11, 12, 15, 16}, []int{0, -1, 0, 1, 0, 2, -1}
		}, true},
	} {
		a, b := base(), base()
		tc.edit(b)
		if got := sameFootprint(read, a, b); got != tc.same {
			t.Errorf("%s: sameFootprint %v, want %v", tc.name, got, tc.same)
		}
		if got := sameFootprint(read, b, a); got != tc.same {
			t.Errorf("%s, swapped: sameFootprint %v, want %v", tc.name, got, tc.same)
		}
	}
}

// readSnapshot lists the router state on a read set: for each marked node
// in ID order, its usage and sequence, then for each of its links the link's
// usage and, when all three edge nodes of the link's tile are marked, the
// tile's passages.
func readSnapshot(r *Router, read []uint64) []int {
	var s []int
	for w, word := range read {
		for ; word != 0; word &= word - 1 {
			id := rgraph.NodeID(w*64 + bits.TrailingZeros64(word))
			s = append(s, int(id), r.nodeUse[id], len(r.seqs[id]))
			s = append(s, r.seqs[id]...)
			for _, adj := range r.G.Neighbors(id) {
				s = append(s, int(adj.Link), r.linkUse[adj.Link])
				l := r.G.Link(int(adj.Link))
				if l.Kind == rgraph.CrossVia {
					continue
				}
				ens := r.G.TileOf(int(l.Layer), int(l.Tile)).EdgeNodes
				if !marked(read, ens[0]) || !marked(read, ens[1]) || !marked(read, ens[2]) {
					continue
				}
				ps := r.passages[r.tileIndex(int(l.Layer), int(l.Tile))]
				s = append(s, len(ps))
				for _, p := range ps {
					s = append(s, p.net, p.e1.vertex, p.e1.edge, p.e2.vertex, p.e2.edge)
				}
			}
		}
	}
	return s
}

// TestReusedStateMatches runs the round loop with a snapshot of the router
// state on each search's read set, taken when the search runs, and requires
// every reuse that reusable certifies to find the live state on that set
// equal to the snapshot. TestReuseMatchesFullRounds compares outputs, so it
// cannot see an unsound certificate whose search would have returned the
// same guide anyway; this test compares what the search would read.
func TestReusedStateMatches(t *testing.T) {
	for _, tc := range multiRoundDesigns {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "dense5" {
				t.Skip("large case")
			}
			r := buildRouterFor(t, tc.d(t), Options{})
			nets := r.G.Design.Nets
			order := r.initialOrder(context.Background())
			failCount := make([]int, len(nets))
			rs := newReuseState(len(nets), len(r.G.Nodes))
			snaps := make([][]int, len(nets))
			reused, rounds := 0, 0
			for round := 0; round < r.Opt.MaxOrderRounds; round++ {
				rounds++
				rs.beginRound(r.routed == 0)
				failed := false
				for _, ni := range order {
					var g *searchResult
					if rs.reusable(ni) {
						if now := readSnapshot(r, rs.readSet(ni)); !slices.Equal(now, snaps[ni]) {
							t.Fatalf("round %d: net %d was reused, but the state on its read set changed", round, ni)
						}
						g = rs.recall(ni)
						reused++
					} else {
						sc := r.scratch()
						found, _ := r.route(sc, nets[ni])
						g = rs.remember(ni, sc, found)
						snaps[ni] = readSnapshot(r, rs.readSet(ni))
					}
					rs.noteTurn(ni)
					if g == nil {
						failCount[ni]++
						failed = true
						continue
					}
					r.commit(g)
					rs.logCommit(ni)
				}
				if !failed || round == r.Opt.MaxOrderRounds-1 || r.ripUpForNextRound() == 0 {
					break
				}
				reorderByFailures(order, failCount)
			}
			if reused == 0 {
				t.Fatalf("no search was reused in %d rounds; the check is vacuous", rounds)
			}
			t.Logf("%d rounds, %d reuses checked", rounds, reused)
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

// TestReusedSearchesPerRound checks the reuse counters on dense2, whose
// second round reuses searches: every global.round span carries exactly one
// global.astar.reused_searches and one global.astar.reused_expansions
// count, and the first round's are zero.
func TestReusedSearchesPerRound(t *testing.T) {
	for _, name := range []string{"global.astar.reused_searches", "global.astar.reused_expansions"} {
		rec := &roundCounts{Collector: obs.NewCollector(), name: name}
		res, err := buildRouter(t, "dense2", rgraph.Options{}, Options{Rec: rec}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rec.outside != 0 || len(rec.rounds) != res.OrderRounds || res.OrderRounds < 2 {
			t.Fatalf("%s: %d counts outside a round, %d round spans, %d order rounds",
				name, rec.outside, len(rec.rounds), res.OrderRounds)
		}
		var total int64
		for i, deltas := range rec.rounds {
			if len(deltas) != 1 {
				t.Fatalf("round %d: %d %s counts, want 1", i, len(deltas), name)
			}
			if i == 0 && deltas[0] != 0 {
				t.Fatalf("round 0: %s %d", name, deltas[0])
			}
			total += deltas[0]
		}
		if total == 0 {
			t.Fatalf("%s: 0 in every round", name)
		}
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
	rs := newReuseState(len(r.G.Design.Nets), len(r.G.Nodes))
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
