package main

import (
	"bytes"
	"context"
	"fmt"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/dt"
	"rdlroute/internal/geom"
	"rdlroute/internal/global"
	"rdlroute/internal/obs"
	"rdlroute/internal/portfolio"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/router"
	"rdlroute/internal/verify"
	"rdlroute/internal/viaplan"
)

// composed is one traced op: the pipeline re-executed layer by layer.
type composed struct {
	res       opResult
	route     int              // id of the op's "route" span
	cols      []*obs.Collector // the program's own spans and counters
	triangles int              // triangles of the dt probe
}

// composeOp decodes a design from its JSON and routes it by calling each
// layer's public function in turn, with a span around every call:
//
//	design.read (design.ReadJSON)
//	route
//	  viaplan.build (viaplan.Build)
//	  rgraph.build (rgraph.Build)
//	  global.run (global.New(...).Run), detail.run (detail.Run)
//	    — or portfolio.race (portfolio.Race) with one portfolio.attempt
//	      span per strategy holding the attempt's global.run and detail.run
//	  drc.check (detail.CheckDRCParallel)
//	  verify.check (verify.Check)
//	dt.triangulate (dt.Triangulate on every layer of the via plan)
//
// The route span is the part router.Route does. dt.triangulate runs after
// it and repeats the triangulation rgraph.Build already did, so that the
// triangulation is timed on its own.
func composeOp(ctx context.Context, blob []byte, opt router.Options, ot opTrace) composed {
	var c composed
	s := ot.start("design.read", -1)
	d, err := design.ReadJSON(bytes.NewReader(blob))
	ot.end(s)
	if err != nil {
		c.res.err = err
		c.route = -1
		return c
	}
	col := obs.NewCollector()
	c.cols = []*obs.Collector{col}
	c.route = ot.start("route", -1)
	plan, cols, res := composeRoute(ctx, d, opt, col, ot, c.route)
	ot.end(c.route)
	c.res = res
	c.cols = append(c.cols, cols...)
	if plan == nil {
		return c
	}

	s = ot.start("dt.triangulate", -1)
	for _, lp := range plan.Layers {
		pts := make([]geom.Point, len(lp.Verts))
		for i, v := range lp.Verts {
			pts[i] = v.Pos
		}
		mesh, err := dt.Triangulate(pts)
		if err != nil {
			if c.res.err == nil {
				c.res.err = fmt.Errorf("dt probe: %w", err)
			}
			break
		}
		c.triangles += len(mesh.Tris)
	}
	ot.end(s)
	return c
}

// composeRoute mirrors router.Route, with its runAttempt, routePortfolio
// and finish, option for option. It returns the via plan for the dt probe
// and the per-attempt collectors of a portfolio race.
func composeRoute(ctx context.Context, d *design.Design, opt router.Options, rec *obs.Collector,
	ot opTrace, parent int) (*viaplan.Plan, []*obs.Collector, opResult) {
	fail := func(err error) (*viaplan.Plan, []*obs.Collector, opResult) {
		return nil, nil, opResult{err: err}
	}
	ctx, cancel := obs.WithBudget(ctx, opt.TimeBudget, router.ErrTimeout)
	defer cancel()

	vopt := opt.Via
	if vopt.Rec == nil {
		vopt.Rec = rec
	}
	if vopt.ViaCost == 0 {
		vopt.ViaCost = rgraph.ViaCostValue(opt.Graph.ViaCost)
	}
	s := ot.start("viaplan.build", parent)
	plan, err := viaplan.Build(d, vopt)
	ot.end(s)
	if err != nil {
		return fail(fmt.Errorf("via planning: %w", err))
	}

	gropt := opt.Graph
	if gropt.Rec == nil {
		gropt.Rec = rec
	}
	s = ot.start("rgraph.build", parent)
	g, err := rgraph.Build(d, plan, gropt)
	ot.end(s)
	if err != nil {
		return fail(fmt.Errorf("graph build: %w", err))
	}

	prof := portfolio.Profile{}
	if opt.OrderingProfile != nil {
		prof = *opt.OrderingProfile
	}
	var ar attempt
	var cols []*obs.Collector
	winner := ""
	if len(opt.Portfolio) > 0 {
		if opt.Ordering != "" {
			return fail(fmt.Errorf("Ordering %q and Portfolio %v are mutually exclusive", opt.Ordering, opt.Portfolio))
		}
		names, err := portfolio.NormalizeNames(opt.Portfolio)
		if err != nil {
			return fail(err)
		}
		strategies := make([]portfolio.Strategy, len(names))
		for i, name := range names {
			if strategies[i], err = portfolio.New(name, prof); err != nil {
				return fail(err)
			}
		}
		attempts := make([]attempt, len(strategies))
		cols = make([]*obs.Collector, len(strategies))
		for i := range cols {
			cols[i] = obs.NewCollector()
		}
		race := ot.start("portfolio.race", parent)
		w, outs := portfolio.Race(strategies, opt.Parallelism,
			func(slot int, st portfolio.Strategy, workers int) portfolio.Outcome {
				as := ot.start("portfolio.attempt", race)
				attempts[slot] = composeAttempt(ctx, g, opt, st, workers, cols[slot], ot, as)
				ot.end(as)
				return attempts[slot].outcome()
			})
		ot.end(race)
		ar, winner = attempts[w], outs[w].Strategy
	} else {
		var strat portfolio.Strategy
		if opt.Ordering != "" {
			if strat, err = portfolio.New(opt.Ordering, prof); err != nil {
				return fail(err)
			}
		}
		ar = composeAttempt(ctx, g, opt, strat, opt.Parallelism, rec, ot, parent)
	}
	if ar.err != nil {
		return nil, cols, opResult{err: ar.err}
	}

	workers := opt.VerifyWorkers
	if workers == 0 {
		workers = opt.Parallelism
	}
	s = ot.start("drc.check", parent)
	violations := detail.CheckDRCParallel(ar.dres.Routes, d, detail.DRCOptions{Workers: workers, Rec: rec})
	ot.end(s)
	var report *verify.Report
	if opt.Verify != router.VerifyOff {
		s = ot.start("verify.check", parent)
		report = verify.Check(d, ar.dres.Routes, verify.Options{
			Workers: workers, Rec: rec, DRC: violations, HaveDRC: true,
		})
		ot.end(s)
	}
	res := summarize(d, ar.dres, violations, report, winner)
	if ar.gerr != nil && !obs.TimedOut(ctx) {
		res.err = fmt.Errorf("global routing: %w", ar.gerr)
	} else if opt.Verify == router.VerifyStrict && report != nil && !report.OK() {
		res.err = &router.VerifyError{Report: report}
	}
	return plan, cols, res
}

// attempt is one global+detail pass, as router's runAttempt returns it.
type attempt struct {
	gres *global.Result
	gerr error
	dres *detail.Result
	err  error
}

// composeAttempt mirrors router's runAttempt.
func composeAttempt(ctx context.Context, g *rgraph.Graph, opt router.Options,
	strat portfolio.Strategy, workers int, rec obs.Recorder, ot opTrace, parent int) attempt {
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
	s := ot.start("global.run", parent)
	gr := global.New(g, gopt)
	gres, gerr := gr.Run(ctx)
	ot.end(s)
	if gres == nil {
		return attempt{gerr: gerr, err: fmt.Errorf("global routing: %w", gerr)}
	}

	dopt := opt.Detail
	if dopt.Rec == nil {
		dopt.Rec = rec
	}
	if dopt.Workers == 0 {
		dopt.Workers = workers
	}
	s = ot.start("detail.run", parent)
	dres, err := detail.Run(ctx, gr, gres, dopt)
	ot.end(s)
	if err != nil {
		return attempt{gres: gres, gerr: gerr, err: fmt.Errorf("detailed routing: %w", err)}
	}
	return attempt{gres: gres, gerr: gerr, dres: dres}
}

// outcome mirrors router's outcomeOf: the racer's canonical score.
func (a attempt) outcome() portfolio.Outcome {
	out := portfolio.Outcome{Err: a.err}
	if a.err != nil {
		return out
	}
	out.OK = true
	out.Routability = a.gres.Routability()
	out.Wirelength = a.dres.Wirelength
	for _, rt := range a.dres.Routes {
		if rt != nil {
			out.Vias += len(rt.Vias)
		}
	}
	return out
}
