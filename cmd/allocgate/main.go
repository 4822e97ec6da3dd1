// Command allocgate enforces the pinned allocs/op and B/op budgets of the
// routing hot paths from a BENCH_route.json-style file. It is the CI half
// of the zero-allocation work: the benchmarks measure, TestMain records,
// and this gate fails the build when any gated row regresses past its
// budget.
//
// Budgets are the measured allocs/op of each stage at the time its
// allocation profile was last optimized, plus 10% headroom (rounded up), so
// a >10% allocation regression fails the bench-smoke job. The rgraph and
// global rows also carry a B/op budget, the measured bytes plus 10%: a
// count alone would pass a return to capacity-sized arrays or unpacked
// records, which allocate as often but far more. Every benchmark iteration
// runs the stage cold (fresh router or detailer per op), so allocation
// counts and bytes, unlike wall-clock, barely move between hosts, which is
// what makes a hard gate practical. They are not exact, though: the graph
// build starts the pool's goroutines, which allocate when they first start,
// so the rgraph rows vary between fresh processes (dense5 read 136–137
// and dense2 78–83 allocs/op over five -cpu 2 runs at -benchtime=1x). The
// 10% headroom absorbs that spread. When an intentional change moves a budget, re-pin it
// from fresh `make alloc-gate` runs and say so in the commit.
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
// Parallelism; its ordering seeds keep one scratch per pool worker. The
// graph build runs its layers on the pool, which adds a fixed number of
// allocations per phase and per layer, not per design element. Detail
// workers each own a scratch, so the detail rows grow with the pool size;
// they carry no bytes budget (maxBytes 0).
var budgets = []budget{
	{"rgraph/dense1", 90, 2.35e6},
	{"rgraph/dense2", 88, 3.88e6},
	{"rgraph/dense3", 117, 9.69e6},
	{"rgraph/dense4", 116, 10.33e6},
	{"rgraph/dense5", 150, 22.28e6},
	{"global/dense1", 1012, 1.30e6},
	{"global/dense2", 2610, 2.66e6},
	{"global/dense3", 3594, 6.03e6},
	{"global/dense4", 5172, 6.85e6},
	{"global/dense5", 15828, 20.62e6},
	{"detail/dense1", 5044, 0},
	{"detail/dense2", 12650, 0},
	{"detail/dense3", 22564, 0},
	{"detail/dense4", 33897, 0},
	{"detail/dense5", 91747, 0},
}

// budget is one gated row's ceiling.
type budget struct {
	name     string
	max      float64 // allocs/op
	maxBytes float64 // B/op; 0 leaves the row's bytes ungated
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
		if bd.maxBytes == 0 {
			fmt.Fprintf(stdout, "ok   %-22s %.0f allocs/op within budget %.0f\n", bd.name, a, bd.max)
			continue
		}
		b, ok := e["bytes_per_op"].(float64)
		if !ok {
			failures++
			fmt.Fprintf(stdout, "FAIL %-22s has no bytes_per_op\n", bd.name)
			continue
		}
		if b > bd.maxBytes {
			failures++
			fmt.Fprintf(stdout, "FAIL %-22s %.2f MB/op exceeds budget %.2f MB\n", bd.name, b/1e6, bd.maxBytes/1e6)
			continue
		}
		fmt.Fprintf(stdout, "ok   %-22s %.0f allocs/op within budget %.0f, %.2f MB/op within %.2f MB\n",
			bd.name, a, bd.max, b/1e6, bd.maxBytes/1e6)
	}
	if failures > 0 {
		return fmt.Errorf("%d budget(s) violated", failures)
	}
	return nil
}
