package detail

import (
	"context"
	"testing"
)

// TestDetailRunDoesNotAllocate pins the zero-allocation property of the
// detail stage's tile-routing hot path, mirroring the global stage's
// TestRouteSearchDoesNotAllocate: once a first pass has grown every job's
// scratch buffers (fit/full polylines, per-passage route buffers, routed
// lists, the failure buffer) to their high-water marks, routing the tiles
// again must not touch the heap. A passage then costs no allocation of its
// own, so a run's allocations come from job preparation alone.
func TestDetailRunDoesNotAllocate(t *testing.T) {
	r, gres, _ := pipeline(t, "dense1", Options{})
	d := &Detailer{
		G: r.G, R: r,
		Opt:    Options{Workers: 1},
		guides: gres.Guides,
	}
	if err := d.buildChains(gres.Guides); err != nil {
		t.Fatal(err)
	}
	d.AdjustAccessPoints(context.Background())
	d.buildTileJobs()
	ctx := context.Background()
	// Warm-up: the first pass sizes every scratch to its high-water mark.
	d.routeTiles(ctx)

	var failed int
	allocs := testing.AllocsPerRun(20, func() {
		failed = len(d.routeTiles(ctx))
	})
	_ = failed
	if allocs > 0 {
		t.Fatalf("warm routeTiles allocated %.1f allocs/run, want 0", allocs)
	}
}
