// Package rdlroute reproduces "Any-Angle Routing for Redistribution Layers
// in 2.5D IC Packages" (Chung, Chuang, Chang — DAC 2023): the first
// any-angle routing algorithm for multiple RDLs in InFO-style advanced
// packages.
//
// The implementation lives under internal/:
//
//   - internal/geom     — 2-D computational geometry substrate
//   - internal/dt       — Bowyer–Watson Delaunay triangulation
//   - internal/design   — design model + dense1–dense5 benchmark generator
//   - internal/obs      — observability: stage spans, counters, progress,
//     and the context/deadline run-control helpers
//   - internal/viaplan  — candidate-via planning
//   - internal/rgraph   — multi-layer routing graph (Eq. 1/Eq. 2 capacities)
//   - internal/global   — crossing-aware A*, RUDY ordering, Eq. 3 refinement
//   - internal/detail   — DP access-point adjustment, fit routing, DRC
//   - internal/router   — the public pipeline facade and its one driver
//   - internal/aarf     — AARF* baseline preset (Table III)
//   - internal/xarch    — traditional X-architecture baseline preset (Table II)
//   - internal/svg      — layout rendering (Fig. 14)
//   - internal/stats    — geometry analytics (angle histograms, utilization)
//   - internal/verify   — independent result verifier
//   - internal/bench    — evaluation harness for every table and figure
//
// The pipeline is context-first: router.Route takes a context.Context whose
// deadline degrades the run to a partial result (Metrics.TimedOut) while
// explicit cancellation aborts with an error. The baselines are
// router.Options presets it runs the same way:
//
//	out, err := router.Route(ctx, d, router.Options{TimeBudget: 30 * time.Second})
//	cai, err := router.Route(ctx, d, xarch.Options(router.Options{TimeBudget: 30 * time.Second}))
//
// See README.md for a walkthrough, DESIGN.md for the system inventory and
// per-experiment index, EXPERIMENTS.md for paper-vs-measured results, and
// doc/OBSERVABILITY.md for the tracing/metrics layer.
package rdlroute
