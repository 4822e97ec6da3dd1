// Command allocgate enforces the pinned allocs/op budgets of the routing
// hot paths from a BENCH_route.json-style file. It is the CI half of the
// zero-allocation work: the benchmarks measure, TestMain records, and this
// gate fails the build when any gated row regresses past its budget.
//
// Budgets are the measured allocs/op of each stage at the time its
// allocation profile was last optimized, plus 10% headroom (rounded up), so
// a >10% allocation regression fails the bench-smoke job. Allocation counts
// — unlike wall-clock — are stable across hosts and -benchtime settings
// here because every benchmark iteration runs the stage cold (fresh router
// or detailer per op), which is what makes a hard gate practical. When an
// intentional change moves a budget, re-pin it from a fresh
// `make bench-route` run and say so in the commit.
//
// Usage:
//
//	allocgate [-in BENCH_route.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
)

// budgets pins the gated rows, measured at a pool size of 2 (the gate runs
// its benchmarks with -cpu 2). The global round loop is serial at every
// Parallelism. The graph build runs its layers on the pool, which adds a
// fixed number of allocations per phase and per layer, not per design
// element. Detail workers each own a scratch, so the detail rows grow with
// the pool size.
var budgets = []struct {
	name string
	max  float64
}{
	{"rgraph/dense1", 96},
	{"rgraph/dense2", 97},
	{"rgraph/dense3", 135},
	{"rgraph/dense4", 139},
	{"rgraph/dense5", 207},
	{"global/dense1", 975},
	{"global/dense2", 2585},
	{"global/dense3", 3580},
	{"global/dense4", 5195},
	{"global/dense5", 16623},
	{"detail/dense1", 5044},
	{"detail/dense2", 12650},
	{"detail/dense3", 22564},
	{"detail/dense4", 33897},
	{"detail/dense5", 91747},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("allocgate: ")
	in := flag.String("in", "BENCH_route.json", "benchmark JSON to check")
	flag.Parse()
	if err := run(*in, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable command core: it loads the bench file and checks
// every budgeted row, returning an error describing all failures at once.
func run(path string, stdout io.Writer) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var entries []map[string]any
	if err := json.Unmarshal(b, &entries); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	byName := make(map[string]map[string]any, len(entries))
	for _, e := range entries {
		if n, ok := e["name"].(string); ok {
			byName[n] = e
		}
	}
	failures := 0
	for _, bd := range budgets {
		e, ok := byName[bd.name]
		if !ok {
			failures++
			fmt.Fprintf(stdout, "FAIL %-22s missing from %s (budget %.0f allocs/op unchecked)\n",
				bd.name, path, bd.max)
			continue
		}
		a, ok := e["allocs_per_op"].(float64)
		if !ok {
			failures++
			fmt.Fprintf(stdout, "FAIL %-22s has no allocs_per_op\n", bd.name)
			continue
		}
		if a > bd.max {
			failures++
			fmt.Fprintf(stdout, "FAIL %-22s %.0f allocs/op exceeds budget %.0f\n", bd.name, a, bd.max)
			continue
		}
		fmt.Fprintf(stdout, "ok   %-22s %.0f allocs/op within budget %.0f\n", bd.name, a, bd.max)
	}
	if failures > 0 {
		return fmt.Errorf("%d budget(s) violated", failures)
	}
	return nil
}
