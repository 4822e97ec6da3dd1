// Package pool provides the routing stack's one sanctioned concurrency
// primitive: a deterministic fan-out over a fixed list of work units.
//
// Every parallel stage in the pipeline — the routing-graph build (one unit
// per wire layer), the DRC engine, tile routing, route assembly, the verify
// gate and the global router's standalone ordering seeds — must schedule
// its goroutines through Run. Via planning stays serial: its jitter RNG is
// sequential. Unit
// boundaries are fixed by the caller and every result lands at its own
// unit's index, so any pool size (including the serial workers<=1 path)
// produces byte-identical output; only the scheduling varies. The
// `barego` analyzer in internal/lint enforces this: bare go statements
// in the deterministic packages are rejected at the source level, and
// this package is the single place a worker goroutine may be launched.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Default resolves a requested worker count to the pipeline's shared
// convention: a positive request is taken as-is, anything else selects
// GOMAXPROCS capped at 8 (routing stages are CPU-bound and stop scaling
// well past that). Every stage that exposes a Workers/Parallelism knob —
// the routing-graph build, detail routing, DRC, the verify gate and the
// global router's ordering seeds — resolves it through this one function,
// so "zero means auto" cannot drift between stages again.
func Default(requested int) int {
	if requested > 0 {
		return requested
	}
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	return w
}

// Run executes the units on a pool of the given size and returns their
// results indexed by unit.
func Run[T any](units []func() T, workers int) []T {
	results := make([]T, len(units))
	if workers <= 1 || len(units) <= 1 {
		for i, u := range units {
			results[i] = u()
		}
		return results
	}
	if workers > len(units) {
		workers = len(units)
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(len(units)) {
					return
				}
				results[i] = units[i]()
			}
		}()
	}
	wg.Wait()
	return results
}

// RunWith is Run for units that want a per-worker scratch slot: each unit
// receives the index (0 ≤ w < workers) of the goroutine executing it, so a
// caller can allocate `workers` scratch buffers up front and let every unit
// reuse its worker's slot without locking. The serial path passes 0. Like
// Run, unit boundaries and result placement are fixed by the caller —
// scratches must only carry state that does not influence results (reusable
// buffers, stamp arrays), so any pool size stays byte-identical.
func RunWith[T any](units []func(worker int) T, workers int) []T {
	results := make([]T, len(units))
	if workers <= 1 || len(units) <= 1 {
		for i, u := range units {
			results[i] = u(0)
		}
		return results
	}
	if workers > len(units) {
		workers = len(units)
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(len(units)) {
					return
				}
				results[i] = units[i](w)
			}
		}(w)
	}
	wg.Wait()
	return results
}
