// Package router is the public pipeline facade of the any-angle RDL router:
// via planning → routing-graph construction → global routing (crossing-aware
// A* with the Eq. 1/Eq. 2 capacity model, RUDY ordering, diagonal utility
// refinement, net-order adjustment) → detailed routing (DP access-point
// adjustment, fit-routing tile legalization) → design-rule checking →
// optional verification gate (Options.Verify) re-checking the result with
// the independent verifier before it is reported as success. Route is the
// pipeline's one driver: the Table II and III baselines are Options
// presets (xarch.Options, aarf.Options) that it runs the same way.
//
// Typical use:
//
//	d, _ := design.GenerateDense("dense1")
//	out, err := router.Route(context.Background(), d, router.Options{})
//	fmt.Println(out.Metrics.Routability, out.Metrics.Wirelength)
package router

import (
	"context"
	"fmt"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/global"
	"rdlroute/internal/obs"
	"rdlroute/internal/portfolio"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/verify"
	"rdlroute/internal/viaplan"
)

// Options bundles the per-stage options plus the overall time budget. Its
// JSON form (see MarshalJSON) is the "options" object of a routing-service
// job and the options half of the job's result-cache key; fields tagged "-"
// observe or pace a run without changing its result.
type Options struct {
	Via    viaplan.Options `json:"via"`
	Graph  rgraph.Options  `json:"graph"`
	Global global.Options  `json:"global"`
	Detail detail.Options  `json:"detail"`
	// Parallelism is the pipeline's one concurrency knob: it sizes the
	// worker pools of the routing-graph build (one unit per wire layer),
	// the global stage's ordering seeds, detailed routing, the DRC stage
	// and the verification gate. Via planning stays serial: its jitter RNG
	// is sequential. Zero selects GOMAXPROCS capped at 8; 1 forces the
	// serial reference path everywhere. Results are byte-identical for
	// every value. A stage-level override (Graph.Workers,
	// Global.Parallelism, Detail.Workers) or the deprecated VerifyWorkers
	// alias wins over this knob for its own stage when non-zero.
	Parallelism int `json:"parallelism"`
	// TimeBudget aborts routing when exceeded (the paper caps every run at
	// one hour and reports the best result so far). Zero means no limit.
	// The budget is enforced as a context deadline with ErrTimeout as its
	// cancellation cause. The JSON form carries it in whole milliseconds
	// as time_budget_ms.
	TimeBudget time.Duration `json:"-"`
	// Rec receives spans, counters, gauges and progress events from every
	// pipeline stage. Nil selects the no-op recorder. A stage whose own
	// options carry a non-nil recorder keeps it.
	Rec obs.Recorder `json:"-"`
	// Verify selects the verification gate: off (zero value) skips the
	// independent verifier, warn attaches its report to the Output, strict
	// additionally fails the run with a *VerifyError when the verifier
	// finds problems.
	Verify VerifyMode `json:"verify"`
	// VerifyWorkers sizes the worker pool of the DRC stage and the
	// verification gate.
	//
	// Deprecated: use Parallelism, which covers every stage. VerifyWorkers
	// is kept as a working alias for the DRC/verify stages and wins over
	// Parallelism there when non-zero.
	VerifyWorkers int `json:"-"`
	// Ordering selects the global stage's net-ordering strategy by name
	// ("rudy", "netlen", "congestion"; see internal/portfolio). Empty
	// selects RUDY through the global stage's nil-strategy path, which
	// routes byte-identically to "rudy". Mutually exclusive with Portfolio.
	Ordering string `json:"ordering"`
	// Portfolio lists strategies raced as independent full route attempts
	// (each on its own router instance over the shared routing graph,
	// splitting the Parallelism budget); the winner is chosen by the
	// canonical objective routability > wirelength > via count > strategy
	// name, so the selected result is byte-identical for any worker count,
	// completion order or submission order. Empty (the default) routes the
	// single configured strategy.
	Portfolio []string `json:"portfolio"`
	// OrderingProfile parameterizes the "congestion" strategy's scorer;
	// nil selects the built-in default weights.
	OrderingProfile *portfolio.Profile `json:"ordering_profile"`
}

// verifyWorkers resolves the DRC/verify pool size: the deprecated
// stage-level alias when set, else the unified knob (zero falls through to
// the stages' own GOMAXPROCS-capped-at-8 default).
func (o Options) verifyWorkers() int {
	if o.VerifyWorkers != 0 {
		return o.VerifyWorkers
	}
	return o.Parallelism
}

// Metrics summarizes one routing run in the form the paper's tables report.
type Metrics struct {
	// Routability is the fraction of nets fully routed, in [0, 1].
	Routability float64
	RoutedNets  int
	TotalNets   int
	// Wirelength is the total routed wirelength in µm. When Routability is
	// below 1 it covers only the successfully routed nets and is therefore
	// a lower bound (the paper's '>' notation).
	Wirelength     float64
	WirelengthIsLB bool
	// Vias is the number of vias used by routed nets (after the detail
	// stage's layer-reassignment pass).
	Vias int
	// ViasBeforeReassign is the via count the routes carried before the
	// layer-reassignment pass; equal to Vias when the pass is skipped or
	// found nothing to fold.
	ViasBeforeReassign int
	// Runtime is the wall-clock routing time (graph build included).
	Runtime time.Duration
	// TimedOut reports whether a deadline — the TimeBudget or one already
	// carried by the caller's context — cut the run short.
	TimedOut bool

	GlobalRounds       int
	DiagonalReductions int
	FitFailures        int
	DRCViolations      int
	// VerifyFindings is the verification gate's finding count; zero when
	// the gate is off (see VerifyMode).
	VerifyFindings int
	// PortfolioWinner names the strategy whose attempt won the portfolio
	// race; empty for single-attempt runs.
	PortfolioWinner string
	GraphStats      rgraph.Stats
}

// Output carries the results of a routing run: the design, the global
// guides, the detailed routes and the reports. It keeps neither the routing
// graph nor the global router, so both are garbage once Route returns, and a
// held Output (a service's cached or finished job) costs only what it
// carries.
type Output struct {
	Design       *design.Design
	GlobalResult *global.Result
	DetailResult *detail.Result
	Violations   []detail.Violation
	// VerifyReport is the verification gate's report; nil when the gate is
	// off (Options.Verify == VerifyOff).
	VerifyReport *verify.Report
	// Portfolio holds every race attempt's canonical score in canonical
	// strategy order; nil for single-attempt runs.
	Portfolio []portfolio.Outcome
	Metrics   Metrics
}

// Route runs the complete any-angle routing pipeline on a design.
//
// Deadlines degrade, cancellation aborts: when ctx's deadline (or the
// TimeBudget) expires mid-run the pipeline finishes with the nets routed so
// far and returns the partial Output with a nil error and
// Metrics.TimedOut set — the paper's report-best-so-far behaviour. When ctx
// is cancelled explicitly, Route returns the partial Output together with
// the stage-wrapped ctx.Err().
func Route(ctx context.Context, d *design.Design, opt Options) (*Output, error) {
	start := time.Now()
	ctx, cancel := obs.WithBudget(ctx, opt.TimeBudget, ErrTimeout)
	defer cancel()
	rec := obs.Or(opt.Rec)

	vopt := opt.Via
	if vopt.Rec == nil {
		vopt.Rec = rec
	}
	if vopt.ViaCost == 0 {
		// Let the graph's via objective bias the candidate lattice density
		// unless the via planner was given its own knob.
		vopt.ViaCost = rgraph.ViaCostValue(opt.Graph.ViaCost)
	}
	span := obs.StartSpan(rec, "viaplan")
	plan, err := viaplan.Build(d, vopt)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("router: via planning: %w", err)
	}

	gropt := opt.Graph
	if gropt.Rec == nil {
		gropt.Rec = rec
	}
	if gropt.Workers == 0 {
		gropt.Workers = opt.Parallelism
	}
	span = obs.StartSpan(rec, "rgraph")
	g, err := rgraph.Build(d, plan, gropt)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("router: graph build: %w", err)
	}

	strategies, err := opt.portfolioStrategies()
	if err != nil {
		return nil, err
	}
	if len(strategies) > 0 {
		return routePortfolio(ctx, d, g, opt, strategies, rec, start)
	}

	strat, err := opt.orderingStrategy()
	if err != nil {
		return nil, err
	}
	ar := runAttempt(ctx, g, opt, strat, opt.Parallelism, rec)
	if ar.err != nil {
		return nil, ar.err
	}
	return finish(ctx, d, g.Stats(), ar, opt, rec, start, nil, "")
}

// finish runs the shared pipeline epilogue on a completed attempt — DRC,
// the verification gate, metrics — and assembles the Output. It takes the
// graph's statistics, not the graph, so the graph is unreachable while the
// epilogue runs. outs and winner carry the portfolio race summary
// (nil/empty for single-attempt runs).
func finish(ctx context.Context, d *design.Design, gstats rgraph.Stats,
	ar attemptResult, opt Options, rec obs.Recorder, start time.Time,
	outs []portfolio.Outcome, winner string) (*Output, error) {
	gres, dres := ar.gres, ar.dres

	span := obs.StartSpan(rec, "drc")
	violations := detail.CheckDRCParallel(dres.Routes, d, detail.DRCOptions{
		Workers: opt.verifyWorkers(), Rec: rec,
	})
	span.End()
	if rec.Enabled() {
		rec.Count("drc.violations", int64(len(violations)))
	}

	// Verification gate: the independent verifier re-checks the result,
	// reusing the violations above so wire rules are not checked twice.
	report := runGate(d, dres.Routes, violations, opt.Verify, opt.verifyWorkers(), rec)

	out := &Output{
		Design:       d,
		GlobalResult: gres,
		DetailResult: dres,
		Violations:   violations,
		VerifyReport: report,
		Portfolio:    outs,
	}
	m := &out.Metrics
	m.TotalNets = len(d.Nets)
	for _, rt := range dres.Routes {
		if rt != nil {
			m.RoutedNets++
			m.Vias += len(rt.Vias)
		}
	}
	m.ViasBeforeReassign = m.Vias
	if dres.Reassign.ViasBefore > 0 {
		m.ViasBeforeReassign = dres.Reassign.ViasBefore
	}
	m.Routability = gres.Routability()
	m.Wirelength = dres.Wirelength
	m.WirelengthIsLB = m.RoutedNets < m.TotalNets
	m.Runtime = time.Since(start)
	m.TimedOut = obs.TimedOut(ctx)
	m.GlobalRounds = gres.OrderRounds
	m.DiagonalReductions = gres.DiagonalReductions
	m.FitFailures = dres.FitFailures
	m.DRCViolations = len(violations)
	if report != nil {
		m.VerifyFindings = len(report.Problems)
	}
	m.PortfolioWinner = winner
	m.GraphStats = gstats
	if rec.Enabled() {
		rec.Gauge("routability", m.Routability)
		rec.Gauge("wirelength_um", m.Wirelength)
	}

	if ar.gerr != nil && !m.TimedOut {
		// Explicit cancellation: hand back what was routed plus the cause.
		return out, fmt.Errorf("router: global routing: %w", ar.gerr)
	}
	if opt.Verify == VerifyStrict && report != nil && !report.OK() {
		return out, &VerifyError{Report: report}
	}
	return out, nil
}
