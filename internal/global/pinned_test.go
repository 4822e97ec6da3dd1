package global

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"rdlroute/internal/design"
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
// nodes and links in net order (a marker for an unrouted net), then the
// failed nets and the order-round count. The rip-up and expansion counters
// are left out: they measure the work, not the output.
func guidesHash(res *Result) uint64 {
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
	return h.Sum64()
}

// TestGlobalGuidesPinned pins the exact global output of every dense case
// and of the six random-workload designs. The golden test allows a 2%
// wirelength drift; this one moves with any change to a guide, the failed
// nets or the round count. The hashes were measured with the incremental
// rip-up that full rip-up replaced, so they also pin that the two agree on
// these designs.
func TestGlobalGuidesPinned(t *testing.T) {
	want := []struct {
		name string
		hash uint64
	}{
		{"dense1", 0x56b3b4ad1e161ff5},
		{"dense2", 0x6fee97ed4db0cf58},
		{"dense3", 0x1794ea0e94c5cd51},
		{"dense4", 0xcd0d33db81e61613},
		{"dense5", 0x8e529932390ca291},
		{"random0", 0xb87ab1ec4107d004},
		{"random1", 0xe71c6a5d5e3e7e36},
		{"random2", 0x912adcc2e4996b01},
		{"random3", 0xc939dccba86e233a},
		{"random4", 0x4a68c1e36d6ee7df},
		{"random5", 0xb239a9551eeb0116},
	}
	for _, w := range want {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && (w.name == "dense4" || w.name == "dense5") {
				t.Skip("large case")
			}
			res, err := buildRouterFor(t, testDesign(t, w.name), Options{}).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := guidesHash(res); got != w.hash {
				t.Errorf("guides hash %#016x, want %#016x", got, w.hash)
			}
		})
	}
}
