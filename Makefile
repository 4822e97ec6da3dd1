# CI tiers for rdlroute. tier1 is the merge gate; tier2 adds vet, the
# domain lint suite and the race detector (slower, run before shipping
# concurrency-touching changes).

GO ?= go

.PHONY: all tier1 tier2 race-gate lint lint-escape fmt-check bench bench-serve bench-drc bench-route alloc-gate fmt

all: tier1

# cmd/rdlbench is a module of its own, so the root build never compiles
# it; its tests catch API drift in the packages it composes.
tier1:
	$(GO) build ./...
	$(GO) test ./...
	cd cmd/rdlbench && $(GO) test .

tier2: lint
	$(GO) vet ./...
	$(GO) test -race ./...

# Focused race gate over the concurrency-bearing packages: the per-layer
# routing-graph build, the parallel DRC/verify engines, tile routing and
# layer-reassignment pass of the detail stage, the global router's
# ordering-seed pool, the ordering-strategy portfolio racer, the pipeline
# facade's Parallelism propagation (including the via-accounting
# differential across Parallelism 1/2/4/8) and the serving layer. Faster
# than a full tier2 run.
race-gate: lint lint-escape
	$(GO) vet ./...
	$(GO) test -race ./internal/rgraph/ ./internal/detail/ ./internal/global/ ./internal/verify/ ./internal/serve/ ./internal/router/ ./internal/portfolio/

# Domain-specific static analysis (internal/lint): determinism, map
# iteration, float equality, sanctioned concurrency and the //rdl:noalloc
# hot-path contract, propagated interprocedurally through the module
# call graph. Exit 1 on any finding; see doc/LINT.md.
lint:
	$(GO) run ./cmd/rdllint

# Compiler-backed escape gate: replays `go build -gcflags=-m=2`
# diagnostics and fails if the optimizer moves anything to the heap
# inside a //rdl:noalloc body beyond the audited sites — the second line
# of defence behind the AST noalloc/transalloc passes.
lint-escape:
	$(GO) run ./cmd/rdllint -escape

# fmt-check fails (and prints the offenders) when any file needs gofmt,
# without rewriting anything — the CI-side counterpart of `make fmt`.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Serving-layer throughput (jobs/sec at pool sizes 1/2/4, cold vs. cache
# hit). Writes machine-readable results to BENCH_serve.json.
bench-serve:
	BENCH_SERVE_OUT=$(CURDIR)/BENCH_serve.json \
		$(GO) test -run '^$$' -bench BenchmarkServeThroughput -benchmem ./internal/serve/

# Design-rule checker, serial vs. parallel pool sizes on the dense
# benchmarks. Writes machine-readable results (ms/check, speedup vs the
# workers=1 reference, host CPU count) to BENCH_drc.json.
bench-drc:
	BENCH_DRC_OUT=$(CURDIR)/BENCH_drc.json \
		$(GO) test -run '^$$' -bench BenchmarkDRC -benchmem ./internal/detail/

# Routing hot path: the routing-graph build, global A*/rip-up and detailed
# routing per dense case, plus the K=3 ordering-portfolio race end to end.
# Writes ns/op, allocs/op and B/op to BENCH_route.json — the allocation
# counts are the allocation regression gate. Portfolio entries carry
# per-strategy scores, the winner and beats_rudy.
bench-route:
	BENCH_ROUTE_OUT=$(CURDIR)/BENCH_route.json \
		$(GO) test -run '^$$' -bench 'BenchmarkGraphBuild|BenchmarkGlobalRoute|BenchmarkDetailRoute|BenchmarkPortfolioRoute' -benchmem .

# Allocation regression gate, locally runnable: a one-iteration pass over
# the routing benchmarks (allocs/op is exact even at -benchtime=1x since
# every op runs its stage cold) checked against cmd/allocgate's pinned
# per-stage budgets. Fails on a >10% allocs/op regression; CI's bench-smoke
# job runs the same gate. -cpu 2 fixes the default pool size the budgets
# were pinned at: detail workers each own a scratch, so allocs/op grows with
# the pool. The scratch JSON is removed first so a stale file can never
# mask a missing row.
alloc-gate:
	rm -f $(CURDIR)/.bench_route_smoke.json
	BENCH_ROUTE_OUT=$(CURDIR)/.bench_route_smoke.json \
		$(GO) test -run '^$$' -bench 'BenchmarkGraphBuild|BenchmarkGlobalRoute|BenchmarkDetailRoute' -benchtime=1x -cpu 2 .
	$(GO) run ./cmd/allocgate -in $(CURDIR)/.bench_route_smoke.json

fmt:
	gofmt -l -w .
