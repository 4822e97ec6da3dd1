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
)

// orderingProfile resolves the congestion-scorer profile (zero Profile means
// the built-in defaults; see portfolio.DefaultProfile).
func (o Options) orderingProfile() portfolio.Profile {
	if o.OrderingProfile != nil {
		return *o.OrderingProfile
	}
	return portfolio.Profile{}
}

// orderingStrategy resolves the single-strategy knob. The empty name
// returns nil, which the global stage routes as RUDY through its
// nil-strategy short-circuit.
func (o Options) orderingStrategy() (portfolio.Strategy, error) {
	if o.Ordering == "" {
		return nil, nil
	}
	s, err := portfolio.New(o.Ordering, o.orderingProfile())
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	return s, nil
}

// portfolioStrategies resolves the Portfolio list, which Validate has
// deduplicated and put in canonical order, into concrete strategies. Nil
// when the portfolio is empty (single-attempt path).
func (o Options) portfolioStrategies() ([]portfolio.Strategy, error) {
	if len(o.Portfolio) == 0 {
		return nil, nil
	}
	prof := o.orderingProfile()
	out := make([]portfolio.Strategy, len(o.Portfolio))
	for i, name := range o.Portfolio {
		s, err := portfolio.New(name, prof)
		if err != nil {
			return nil, fmt.Errorf("router: %w", err)
		}
		out[i] = s
	}
	return out, nil
}

// attemptResult bundles the outputs of one global+detail pass: one ordering
// strategy routed end to end on its own router instance over the shared
// (read-only) routing graph. It keeps the guides, not the router, which is
// garbage once detailed routing returns.
type attemptResult struct {
	gres *global.Result
	gerr error // context cancellation from the global stage, if any
	dres *detail.Result
	err  error // hard pipeline error; nil for a completed attempt
}

// runAttempt routes the whole global+detail sequence once. strat, when
// non-nil, overrides the global stage's ordering strategy; workers is the
// attempt's worker budget for every stage without its own override. rec
// receives the stage spans (the portfolio racer passes the no-op recorder:
// spans from K concurrent attempts would interleave nondeterministically).
func runAttempt(ctx context.Context, g *rgraph.Graph, opt Options,
	strat portfolio.Strategy, workers int, rec obs.Recorder) attemptResult {
	gopt := opt.Global
	if gopt.Rec == nil {
		gopt.Rec = rec
	}
	if gopt.Parallelism == 0 {
		gopt.Parallelism = workers
	}
	if strat != nil {
		gopt.Order = strat
	}
	gr := global.New(g, gopt)
	gres, gerr := gr.Run(ctx)
	if gres == nil {
		return attemptResult{gerr: gerr, err: fmt.Errorf("router: global routing: %w", gerr)}
	}

	dopt := opt.Detail
	if dopt.Rec == nil {
		dopt.Rec = rec
	}
	if dopt.Workers == 0 {
		dopt.Workers = workers
	}
	dres, err := detail.Run(ctx, gr, gres, dopt)
	if err != nil {
		return attemptResult{gres: gres, gerr: gerr,
			err: fmt.Errorf("router: detailed routing: %w", err)}
	}
	return attemptResult{gres: gres, gerr: gerr, dres: dres}
}

// outcomeOf reduces an attempt to the racer's canonical score.
func outcomeOf(ar attemptResult) portfolio.Outcome {
	out := portfolio.Outcome{Err: ar.err}
	if ar.err != nil {
		return out
	}
	out.OK = true
	out.Routability = ar.gres.Routability()
	out.Wirelength = ar.dres.Wirelength
	for _, rt := range ar.dres.Routes {
		if rt != nil {
			out.Vias += len(rt.Vias)
		}
	}
	return out
}

// routePortfolio races the strategies as independent full route attempts
// over the shared graph and finishes the pipeline (DRC, verify gate,
// metrics) on the canonical winner. Attempts run on detached recorders;
// the caller's recorder gets the per-strategy summary instead:
// portfolio.attempts, portfolio.winner.<name>, and per-strategy
// routability/wirelength gauges.
func routePortfolio(ctx context.Context, d *design.Design, g *rgraph.Graph,
	opt Options, strategies []portfolio.Strategy, rec obs.Recorder, start time.Time) (*Output, error) {
	span := obs.StartSpan(rec, "portfolio")
	attempts := make([]attemptResult, len(strategies))
	winner, outs := portfolio.Race(strategies, opt.Parallelism,
		func(slot int, s portfolio.Strategy, workers int) portfolio.Outcome {
			attempts[slot] = runAttempt(ctx, g, opt, s, workers, obs.Or(nil))
			return outcomeOf(attempts[slot])
		})
	span.End()

	if rec.Enabled() {
		rec.Count("portfolio.attempts", int64(len(outs)))
		rec.Count("portfolio.winner."+outs[winner].Strategy, 1)
		for _, out := range outs {
			if !out.OK {
				rec.Count("portfolio."+out.Strategy+".failed", 1)
				continue
			}
			rec.Gauge("portfolio."+out.Strategy+".routability", out.Routability)
			rec.Gauge("portfolio."+out.Strategy+".wirelength_um", out.Wirelength)
		}
	}

	ar := attempts[winner]
	if ar.err != nil {
		// Every attempt failed (a completed attempt always beats an errored
		// one); surface the canonical winner's error.
		return nil, ar.err
	}
	return finish(ctx, d, g.Stats(), ar, opt, rec, start, outs, outs[winner].Strategy)
}
