package global

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/rgraph"
)

// randomWorkloadDesigns draws the six designs of the benchmark's random
// workload the way cmd/rdlbench's randomPool(1, 6) does: the generator
// seed, chip count (2–6), nets per channel (8–24) and wire layers (2–3) of
// each design come from one source seeded with 1.
func randomWorkloadDesigns(t testing.TB) []*design.Design {
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

// testDesign returns the dense case of that name, or design i of the
// random workload for "random<i>".
func testDesign(t testing.TB, name string) *design.Design {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(name, "random%d", &i); err == nil {
		return randomWorkloadDesigns(t)[i]
	}
	d, err := design.GenerateDense(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// guidesHash is an FNV-64a hash over a global result: every net's guide
// nodes and links in net order (a marker for an unrouted net), the failed
// nets and the order-round count, then every edge node's net sequence in
// node-ID order. The sequences carry the insertion gaps, which decide the
// order of nets along each edge and with it the detail stage's geometry,
// so two results with equal guides but different gaps hash apart. The
// rip-up and expansion counters are left out: they measure the work, not
// the output.
func guidesHash(r *Router, res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	for _, g := range res.Guides {
		if g == nil {
			put(-1)
			continue
		}
		put(len(g.Nodes))
		for _, id := range g.Nodes {
			put(int(id))
		}
		for _, l := range g.Links {
			put(l)
		}
	}
	put(len(res.FailedNets))
	for _, ni := range res.FailedNets {
		put(ni)
	}
	put(res.OrderRounds)
	for id := range r.G.Nodes {
		if r.G.Nodes[id].Kind != rgraph.EdgeNode {
			continue
		}
		seq := r.Sequences(rgraph.NodeID(id))
		put(len(seq))
		for _, ni := range seq {
			put(ni)
		}
	}
	return h.Sum64()
}

// TestGlobalGuidesPinned pins the exact global output of every dense case
// and of the six random-workload designs. The golden test allows a 2%
// wirelength drift; this one moves with any change to a guide, an edge
// sequence, the failed nets or the round count. The hashes were measured
// with every net searched in every round, before a round could reuse a
// net's previous search, so they also pin that reuse changes nothing.
func TestGlobalGuidesPinned(t *testing.T) {
	want := []struct {
		name string
		hash uint64
	}{
		{"dense1", 0x9c09abfedeb460c8},
		{"dense2", 0x1a7c35f09137fd10},
		{"dense3", 0x0cdae4157ecd7013},
		{"dense4", 0x976cda2d12baf384},
		{"dense5", 0xcf5ef432d04f31ca},
		{"random0", 0x3edbb8bac16978eb},
		{"random1", 0x768e1cd0dd6d723a},
		{"random2", 0x82f36778c566c1a0},
		{"random3", 0x75a544a063096085},
		{"random4", 0x1e8cdb1e57fa22eb},
		{"random5", 0x48b90d1129a42198},
	}
	for _, w := range want {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && (w.name == "dense4" || w.name == "dense5") {
				t.Skip("large case")
			}
			r := buildRouterFor(t, testDesign(t, w.name), Options{})
			res, err := r.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := guidesHash(r, res); got != w.hash {
				t.Errorf("guides hash %#016x, want %#016x", got, w.hash)
			}
		})
	}
}
