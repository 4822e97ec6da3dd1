package main

import (
	"fmt"
	"math/rand"

	"rdlroute/internal/design"
	"rdlroute/internal/router"
)

// workload is one named set of designs and the router options every sample
// routes them with.
type workload struct {
	name    string
	designs []*design.Design
	opt     router.Options
}

// workloadNames lists the benchmark's workloads in the order a run of all of
// them takes. Why each exists is recorded in BENCHMARK.json and README.md.
var workloadNames = []string{"dense5", "dense-sweep", "random", "portfolio-dense4"}

// randomPoolSeed draws the random workload's designs. It is fixed rather
// than taken from -seed: the drawn designs differ several-fold in size, so
// designs drawn per seed would move every end-to-end metric from seed to
// seed by far more than its regression bound. -seed permutes the order the
// designs are routed in instead.
const randomPoolSeed = 1

// randomDesigns is the random workload's input count.
const randomDesigns = 6

func newWorkload(name string) (*workload, error) {
	warn := router.Options{Verify: router.VerifyWarn}
	switch name {
	case "dense5":
		ds, err := denseDesigns("dense5")
		return &workload{name: name, designs: ds, opt: warn}, err
	case "dense-sweep":
		ds, err := denseDesigns("dense1", "dense2", "dense3", "dense4")
		opt := warn
		opt.Parallelism = 1
		return &workload{name: name, designs: ds, opt: opt}, err
	case "random":
		ds, err := randomPool(randomPoolSeed, randomDesigns)
		return &workload{name: name, designs: ds, opt: warn}, err
	case "portfolio-dense4":
		ds, err := denseDesigns("dense4")
		opt := warn
		opt.Portfolio = []string{"rudy", "netlen", "congestion"}
		return &workload{name: name, designs: ds, opt: opt}, err
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func denseDesigns(names ...string) ([]*design.Design, error) {
	ds := make([]*design.Design, len(names))
	for i, name := range names {
		d, err := design.GenerateDense(name)
		if err != nil {
			return nil, err
		}
		ds[i] = d
	}
	return ds, nil
}

// randomPool draws n random designs whose generator seed, chip count (2–6),
// nets per channel (8–24) and wire layers (2–3) all come from seed.
func randomPool(seed int64, n int) ([]*design.Design, error) {
	rng := rand.New(rand.NewSource(seed))
	ds := make([]*design.Design, n)
	for i := range ds {
		spec := design.RandomSpec{
			Seed:           rng.Int63(),
			Chips:          2 + rng.Intn(5),
			NetsPerChannel: 8 + rng.Intn(17),
			WireLayers:     2 + rng.Intn(2),
		}
		d, err := design.GenerateRandom(spec)
		if err != nil {
			return nil, err
		}
		ds[i] = d
	}
	return ds, nil
}
