// Routing hot-path benchmarks: the global-routing stage (crossing-aware A*
// with rip-up rounds) and the detailed-routing stage (DP adjustment + tile
// fit routing), isolated per dense benchmark. `make bench-route` runs them
// and writes BENCH_route.json with ns/op, B/op, allocs/op and the host CPU
// count, so the allocation trajectory of the hot path is tracked next to the
// wall-clock one (on a 1-CPU host the allocation columns are the signal).
package rdlroute_test

import (
	"context"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rdlroute/internal/benchjson"
	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/global"
	"rdlroute/internal/portfolio"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/router"
	"rdlroute/internal/viaplan"
)

// routeBenchResults accumulates the last run of every route sub-benchmark;
// TestMain writes them as BENCH_route.json when BENCH_ROUTE_OUT is set.
var routeBenchResults = struct {
	mu sync.Mutex
	m  map[string]benchjson.Entry
}{m: make(map[string]benchjson.Entry)}

func recordRouteBench(e benchjson.Entry) {
	routeBenchResults.mu.Lock()
	routeBenchResults.m[e["name"].(string)] = e
	routeBenchResults.mu.Unlock()
}

// amendRouteBench merges extra fields into an already recorded entry.
func amendRouteBench(name string, extra benchjson.Entry) {
	routeBenchResults.mu.Lock()
	if e, ok := routeBenchResults.m[name]; ok {
		for k, v := range extra {
			e[k] = v
		}
	}
	routeBenchResults.mu.Unlock()
}

// seedDetailAllocs pins the detail stage's allocs/op per dense case as of
// the seed of the zero-allocation overhaul (the commit before the flat
// spatial hash and scratch arenas landed). TestMain divides these by the
// measured allocs/op into an allocs_vs_seed improvement factor, so the
// optimization is a tracked series in BENCH_route.json rather than a
// one-off claim; cmd/allocgate enforces the absolute budgets.
var seedDetailAllocs = map[string]float64{
	"dense1": 28413,
	"dense2": 77882,
	"dense3": 123626,
	"dense4": 197649,
	"dense5": 654218,
}

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_ROUTE_OUT"); path != "" && code == 0 {
		routeBenchResults.mu.Lock()
		// Detail rows carry the allocation trajectory against the pinned
		// seed, and a single-CPU note: tile routing and assembly fan out over
		// a worker pool, so on a 1-CPU host their wall-clock is serial
		// throughput and allocs/op is the signal.
		for _, e := range routeBenchResults.m {
			if e["stage"] != "detail" {
				continue
			}
			cse, _ := e["case"].(string)
			if seed, ok := seedDetailAllocs[cse]; ok {
				if a, _ := e["allocs_per_op"].(float64); a > 0 {
					e["seed_allocs_per_op"] = seed
					e["allocs_vs_seed"] = seed / a
				}
			}
			if runtime.NumCPU() == 1 {
				e["note"] = "single-CPU host: pool is timesliced, speedup not measurable"
			}
		}
		out := make([]benchjson.Entry, 0, len(routeBenchResults.m))
		for _, e := range routeBenchResults.m {
			out = append(out, e)
		}
		routeBenchResults.mu.Unlock()
		if err := benchjson.MergeWrite(path, out); err != nil {
			println("bench json:", err.Error())
			code = 1
		}
	}
	os.Exit(code)
}

// builtCase caches the design, via plan and routing graph per dense case so
// the global and detail benchmarks share one build.
var builtCase = func() func(tb testing.TB, name string) *rgraph.Graph {
	var mu sync.Mutex
	cache := map[string]*rgraph.Graph{}
	return func(tb testing.TB, name string) *rgraph.Graph {
		tb.Helper()
		mu.Lock()
		defer mu.Unlock()
		if g, ok := cache[name]; ok {
			return g
		}
		d, err := design.GenerateDense(name)
		if err != nil {
			tb.Fatal(err)
		}
		plan, err := viaplan.Build(d, viaplan.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		g, err := rgraph.Build(d, plan, rgraph.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		cache[name] = g
		return g
	}
}()

// measureLoop runs fn b.N times between mem-stat snapshots and records the
// per-op numbers under name. The explicit ReadMemStats pair mirrors what
// -benchmem reports, but makes the numbers available for BENCH_route.json.
func measureLoop(b *testing.B, name, stage, cse string, fn func()) {
	b.Helper()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N)
	recordRouteBench(benchjson.Entry{
		"name":          name,
		"stage":         stage,
		"case":          cse,
		"ns_per_op":     float64(b.Elapsed().Nanoseconds()) / n,
		"allocs_per_op": float64(after.Mallocs-before.Mallocs) / n,
		"bytes_per_op":  float64(after.TotalAlloc-before.TotalAlloc) / n,
		"n":             b.N,
		"cpus":          runtime.NumCPU(),
	})
}

// BenchmarkGraphBuild measures the routing-graph build alone: the design
// and its via plan are made once outside the timer, each iteration
// triangulates every wire layer and assembles nodes, links and adjacency
// from scratch. Its allocs/op rows keep maps and per-node slices out of the
// build (cmd/allocgate).
func BenchmarkGraphBuild(b *testing.B) {
	for _, name := range design.DenseNames() {
		b.Run(name, func(b *testing.B) {
			d, err := design.GenerateDense(name)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := viaplan.Build(d, viaplan.Options{})
			if err != nil {
				b.Fatal(err)
			}
			measureLoop(b, "rgraph/"+name, "rgraph", name, func() {
				if _, err := rgraph.Build(d, plan, rgraph.Options{}); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// BenchmarkGlobalRoute measures the global-routing stage alone: the graph is
// prebuilt, each iteration runs a fresh router over it (RUDY ordering,
// crossing-aware A*, rip-up rounds, diagonal refinement) at the default
// Parallelism, which only sizes the ordering-seed pool.
func BenchmarkGlobalRoute(b *testing.B) {
	for _, name := range design.DenseNames() {
		b.Run(name, func(b *testing.B) {
			g := builtCase(b, name)
			measureLoop(b, "global/"+name, "global", name, func() {
				r := global.New(g, global.Options{})
				res, err := r.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if res.Routability() == 0 {
					b.Fatal("routed nothing")
				}
			})
		})
	}
}

// BenchmarkPortfolioRoute measures the portfolio race end to end: the full
// pipeline (via planning, graph build, K racing global+detail attempts,
// DRC) per dense case with the canonical K=3 portfolio. Besides timing it
// records one BENCH_route.json row per strategy plus the winner and
// whether the race beat the RUDY-only baseline on the canonical objective
// — the evidence the JSON keeps for the portfolio's value. The smoke
// sub-run races two strategies on dense1 so bench-smoke (-benchtime=1x)
// exercises the harness in one cheap iteration.
func BenchmarkPortfolioRoute(b *testing.B) {
	race := func(b *testing.B, key, cse string, names []string) {
		d, err := design.GenerateDense(cse)
		if err != nil {
			b.Fatal(err)
		}
		var out *router.Output
		measureLoop(b, key, "portfolio", cse, func() {
			var err error
			out, err = router.Route(context.Background(), d, router.Options{Portfolio: names})
			if err != nil {
				b.Fatal(err)
			}
		})
		var rudy *portfolio.Outcome
		for i := range out.Portfolio {
			o := &out.Portfolio[i]
			if o.Strategy == "rudy" {
				rudy = o
			}
			recordRouteBench(benchjson.Entry{
				"name":          key + "/" + o.Strategy,
				"stage":         "portfolio",
				"case":          cse,
				"strategy":      o.Strategy,
				"ok":            o.OK,
				"routability":   o.Routability,
				"wirelength_um": o.Wirelength,
				"vias":          o.Vias,
				"winner":        o.Strategy == out.Metrics.PortfolioWinner,
				"cpus":          runtime.NumCPU(),
			})
		}
		extra := benchjson.Entry{
			"strategies": strings.Join(names, ","),
			"winner":     out.Metrics.PortfolioWinner,
		}
		if rudy != nil {
			extra["beats_rudy"] = out.Metrics.Routability > rudy.Routability ||
				(out.Metrics.Routability == rudy.Routability &&
					out.Metrics.Wirelength < rudy.Wirelength)
			extra["wirelength_vs_rudy_um"] = out.Metrics.Wirelength - rudy.Wirelength
		}
		amendRouteBench(key, extra)
	}
	b.Run("smoke", func(b *testing.B) {
		race(b, "portfolio/smoke", "dense1", []string{"rudy", "netlen"})
	})
	for _, name := range design.DenseNames() {
		b.Run(name, func(b *testing.B) {
			race(b, "portfolio/"+name, name, []string{"rudy", "netlen", "congestion"})
		})
	}
}

// BenchmarkDetailRoute measures the detailed-routing stage alone: global
// routing runs once outside the timer, each iteration redoes chain building,
// DP access-point adjustment, tile fit routing and layer reassignment over
// the same guides. Besides timing, each case records a vias_vs_wirelength
// trade-off row: the via counts before/after the layer-reassignment pass
// next to the polished wirelength, the evidence BENCH_route.json keeps for
// the via objective.
func BenchmarkDetailRoute(b *testing.B) {
	for _, name := range design.DenseNames() {
		b.Run(name, func(b *testing.B) {
			g := builtCase(b, name)
			r := global.New(g, global.Options{})
			gres, err := r.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			var last *detail.Result
			measureLoop(b, "detail/"+name, "detail", name, func() {
				dres, err := detail.Run(context.Background(), r, gres, detail.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if dres.Wirelength <= 0 {
					b.Fatal("no wirelength")
				}
				last = dres
			})
			vias := 0
			for _, rt := range last.Routes {
				if rt != nil {
					vias += len(rt.Vias)
				}
			}
			amendRouteBench("detail/"+name, benchjson.Entry{
				"vias":                 vias,
				"vias_before_reassign": last.Reassign.ViasBefore,
				"vias_vs_wirelength": benchjson.Entry{
					"wirelength_um":        last.Wirelength,
					"vias":                 vias,
					"vias_before_reassign": last.Reassign.ViasBefore,
					"segments_merged":      last.Reassign.SegmentsMerged,
				},
			})
		})
	}
}
