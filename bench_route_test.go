// Routing hot-path benchmarks: the routing-graph build, the global-routing
// stage (crossing-aware A* with rip-up rounds) and the detailed-routing
// stage (DP adjustment + tile fit routing), isolated per dense benchmark.
// Each op runs its stage cold, so the allocs/op and B/op columns go test
// prints are the stage's allocation profile: `make alloc-gate` runs these
// benchmarks once at -cpu 2 and cmd/allocgate checks those columns against
// its pinned budgets.
package rdlroute_test

import (
	"context"
	"sync"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/global"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/viaplan"
)

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

// measureLoop runs fn b.N times with the setup before it left out of the
// measurement, and reports allocations without -benchmem, so every row
// carries the allocs/op and B/op columns cmd/allocgate checks.
func measureLoop(b *testing.B, fn func()) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
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
			measureLoop(b, func() {
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
			measureLoop(b, func() {
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

// BenchmarkDetailRoute measures the detailed-routing stage alone: global
// routing runs once outside the timer, each iteration redoes chain building,
// DP access-point adjustment, tile fit routing and layer reassignment over
// the same guides.
func BenchmarkDetailRoute(b *testing.B) {
	for _, name := range design.DenseNames() {
		b.Run(name, func(b *testing.B) {
			g := builtCase(b, name)
			r := global.New(g, global.Options{})
			gres, err := r.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			measureLoop(b, func() {
				dres, err := detail.Run(context.Background(), r, gres, detail.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if dres.Wirelength <= 0 {
					b.Fatal("no wirelength")
				}
			})
		})
	}
}
