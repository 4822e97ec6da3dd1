// Command allocgate enforces the pinned allocs/op and B/op budgets of the
// routing hot paths on the text output of `go test -bench`. It is the CI
// half of the zero-allocation work: the stage benchmarks measure, go test
// prints their allocs/op and B/op columns, and this gate fails the build
// when any gated row regresses past its budget.
//
// Budgets are the measured allocs/op of each stage at the time its
// allocation profile was last optimized, plus 10% headroom (rounded up), so
// a >10% allocation regression fails the bench-smoke job. The graph-build
// and global rows also carry a B/op budget, the measured bytes plus 10%: a
// count alone would pass a return to capacity-sized arrays or unpacked
// records, which allocate as often but far more. Every benchmark iteration
// runs the stage cold (fresh router or detailer per op), so allocation
// counts and bytes, unlike wall-clock, barely move between hosts, which is
// what makes a hard gate practical. They are not exact, though: the graph
// build starts the pool's goroutines, which allocate when they first start,
// so the graph-build rows vary between fresh processes (dense5 read 136–137
// and dense2 78–83 allocs/op over five -cpu 2 runs at -benchtime=1x). The
// 10% headroom absorbs that spread. When an intentional change moves a
// budget, re-pin it from fresh `make alloc-gate` runs and say so in the
// commit.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkGraphBuild|BenchmarkGlobalRoute|BenchmarkDetailRoute' \
//		-benchtime=1x -cpu 2 . > .bench_alloc.txt
//	allocgate [-in .bench_alloc.txt]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
)

// budgets pins the gated rows by benchmark name, measured at a pool size
// of 2 (the gate runs its benchmarks with -cpu 2). The global round loop is
// serial at every Parallelism; its ordering seeds keep one scratch per pool
// worker. The graph build runs its layers on the pool, which adds a fixed
// number of allocations per phase and per layer, not per design element.
// Detail workers each own a scratch, so the detail rows grow with the pool
// size; they carry no bytes budget (maxBytes 0).
var budgets = []budget{
	{"BenchmarkGraphBuild/dense1", 90, 2.35e6},
	{"BenchmarkGraphBuild/dense2", 88, 3.88e6},
	{"BenchmarkGraphBuild/dense3", 117, 9.69e6},
	{"BenchmarkGraphBuild/dense4", 116, 10.33e6},
	{"BenchmarkGraphBuild/dense5", 150, 22.28e6},
	{"BenchmarkGlobalRoute/dense1", 1012, 1.30e6},
	{"BenchmarkGlobalRoute/dense2", 2610, 2.66e6},
	{"BenchmarkGlobalRoute/dense3", 3594, 6.03e6},
	{"BenchmarkGlobalRoute/dense4", 5172, 6.85e6},
	{"BenchmarkGlobalRoute/dense5", 15828, 20.62e6},
	{"BenchmarkDetailRoute/dense1", 5044, 0},
	{"BenchmarkDetailRoute/dense2", 12650, 0},
	{"BenchmarkDetailRoute/dense3", 22564, 0},
	{"BenchmarkDetailRoute/dense4", 33897, 0},
	{"BenchmarkDetailRoute/dense5", 91747, 0},
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
	in := flag.String("in", ".bench_alloc.txt", "go test -bench output to check")
	flag.Parse()
	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := gate(f, os.Stdout); err != nil {
		log.Fatalf("%s: %v", *in, err)
	}
}

// gate is the testable command core: it reads benchmark output and checks
// every budgeted row, returning an error counting all failures at once. A
// gated benchmark that printed no result line (it failed, or was not run)
// fails, and so does a row without the figures its budget needs. A name
// that appears more than once (-count, or several -cpu values) is checked
// on every line.
func gate(in io.Reader, stdout io.Writer) error {
	rows := make(map[string][]map[string]float64)
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		if name, vals, ok := parseLine(sc.Text()); ok {
			rows[name] = append(rows[name], vals)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	failures := 0
	for _, bd := range budgets {
		if len(rows[bd.name]) == 0 {
			failures++
			fmt.Fprintf(stdout, "FAIL %-28s missing (budget %.0f allocs/op unchecked)\n", bd.name, bd.max)
		}
		for _, vals := range rows[bd.name] {
			if !bd.check(vals, stdout) {
				failures++
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d budget(s) violated", failures)
	}
	return nil
}

// check prints one row's verdict against the budget and reports whether
// the row is within it.
func (bd budget) check(vals map[string]float64, stdout io.Writer) bool {
	a, ok := vals["allocs/op"]
	if !ok {
		fmt.Fprintf(stdout, "FAIL %-28s has no allocs/op\n", bd.name)
		return false
	}
	if a > bd.max {
		fmt.Fprintf(stdout, "FAIL %-28s %.0f allocs/op exceeds budget %.0f\n", bd.name, a, bd.max)
		return false
	}
	if bd.maxBytes == 0 {
		fmt.Fprintf(stdout, "ok   %-28s %.0f allocs/op within budget %.0f\n", bd.name, a, bd.max)
		return true
	}
	b, ok := vals["B/op"]
	if !ok {
		fmt.Fprintf(stdout, "FAIL %-28s has no B/op\n", bd.name)
		return false
	}
	if b > bd.maxBytes {
		fmt.Fprintf(stdout, "FAIL %-28s %.2f MB/op exceeds budget %.2f MB\n", bd.name, b/1e6, bd.maxBytes/1e6)
		return false
	}
	fmt.Fprintf(stdout, "ok   %-28s %.0f allocs/op within budget %.0f, %.2f MB/op within %.2f MB\n",
		bd.name, a, bd.max, b/1e6, bd.maxBytes/1e6)
	return true
}

// parseLine reads one benchmark result line, such as
//
//	BenchmarkGraphBuild/dense1-2  1  5829882 ns/op  2131736 B/op  81 allocs/op
//
// and returns the benchmark's name without the -N processor suffix go test
// appends, and its values by unit. Any other line reports false.
func parseLine(line string) (string, map[string]float64, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", nil, false
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return "", nil, false
	}
	vals := make(map[string]float64, len(f)/2-1)
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", nil, false
		}
		vals[f[i+1]] = v
	}
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name, vals, true
}
