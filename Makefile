# CI tiers for rdlroute. tier1 is the merge gate; tier2 adds vet, the
# domain lint suite and the race detector (slower, run before shipping
# concurrency-touching changes).

GO ?= go

.PHONY: all tier1 tier2 race-gate lint fmt-check bench alloc-gate fmt

all: tier1

# cmd/rdlbench is a module of its own, so the root build never compiles
# it; its tests catch API drift in the packages it composes.
tier1:
	$(GO) build ./...
	$(GO) test ./...
	cd cmd/rdlbench && $(GO) test .

# The root vet never sees cmd/rdlbench either, and it composes the stages
# by their options, so its vet catches API drift before the benchmark runs.
tier2: lint
	$(GO) vet ./...
	cd cmd/rdlbench && $(GO) vet .
	$(GO) test -race ./...

# Focused race gate over the concurrency-bearing packages: the worker pool
# itself (the one place a worker goroutine may start), the recorders that
# concurrent stages and jobs share, the per-layer routing-graph build, the
# parallel DRC/verify engines, tile routing and layer-reassignment pass of
# the detail stage, the global router's ordering-seed pool, the
# ordering-strategy portfolio racer, the pipeline facade's Parallelism
# propagation (including the via-accounting differential across
# Parallelism 1/2/4/8) and the serving layer. Faster than a full tier2 run.
race-gate: lint
	$(GO) vet ./...
	$(GO) test -race ./internal/pool/ ./internal/obs/ ./internal/rgraph/ ./internal/detail/ ./internal/global/ ./internal/verify/ ./internal/serve/ ./internal/router/ ./internal/portfolio/

# Domain-specific static analysis (internal/lint): determinism, map
# iteration, float equality, sanctioned concurrency, and the one static
# allocation check, noalloc, over every //rdl:noalloc function and the
# unannotated helpers it reaches through the module call graph. Exit 1
# on any finding; see doc/LINT.md.
lint:
	$(GO) run ./cmd/rdllint

# fmt-check fails (and prints the offenders) when any file needs gofmt,
# without rewriting anything — the CI-side counterpart of `make fmt`.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Allocation regression gate, locally runnable: a one-iteration pass over
# the routing-stage benchmarks, whose go test output (allocs/op and B/op
# columns) cmd/allocgate checks against its pinned per-stage budgets.
# Every op runs its stage cold, so one iteration counts a stage's
# allocations and bytes; the graph-build counts still vary a little between
# processes, as the pool's goroutines allocate when they first start, and
# the 10% headroom absorbs that. Fails when a benchmark fails, on a >10%
# allocs/op regression of any gated row, or on a >10% B/op regression of a
# graph-build or global row (a count alone would pass a return to
# capacity-sized arrays); CI's bench-smoke job runs the same gate. -cpu 2
# fixes the default pool size the budgets were pinned at: detail workers
# and ordering-seed workers each own a scratch, so allocations grow with
# the pool. The redirect rewrites the output file on every run, so no row
# of an earlier run can stand in for a missing one; a failed benchmark run
# prints it and stops.
alloc-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkGraphBuild|BenchmarkGlobalRoute|BenchmarkDetailRoute' -benchtime=1x -cpu 2 . \
		> $(CURDIR)/.bench_alloc.txt || { cat $(CURDIR)/.bench_alloc.txt; exit 1; }
	$(GO) run ./cmd/allocgate -in $(CURDIR)/.bench_alloc.txt

fmt:
	gofmt -l -w .
