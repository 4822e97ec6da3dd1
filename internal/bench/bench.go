// Package bench is the evaluation harness: it regenerates every table and
// figure of the paper's experimental section on the synthetic dense1–dense5
// benchmark family, plus ablation studies for the design choices called out
// in DESIGN.md.
//
// Protocol notes (documented deviations from the paper):
//   - The paper caps each run at one hour on a 64-core Ryzen 3990X. The
//     synthetic designs are smaller than the originals, so the default cap
//     here is 30 s per run — the same "stop unfinished runs and report the
//     best routability so far" semantics at a scaled budget.
//   - Absolute wirelengths differ from the paper (different benchmarks);
//     the comparisons report the same ratios the paper's tables do.
package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"rdlroute/internal/aarf"
	"rdlroute/internal/design"
	"rdlroute/internal/obs"
	"rdlroute/internal/router"
	"rdlroute/internal/xarch"
)

// Config controls a harness run.
type Config struct {
	// Cases are the benchmark names; nil selects all of dense1–dense5.
	Cases []string
	// TimeBudget caps each individual routing run. Zero selects 30 s.
	TimeBudget time.Duration
}

func (c Config) withDefaults() Config {
	if len(c.Cases) == 0 {
		c.Cases = design.DenseNames()
	}
	if c.TimeBudget == 0 {
		c.TimeBudget = 30 * time.Second
	}
	return c
}

// CaseRun is one router's result on one benchmark, in the shape the paper's
// tables report.
type CaseRun struct {
	Case          string
	Router        string
	Routability   float64 // percent
	Wirelength    float64 // µm, lower bound when Routability < 100
	WirelengthLB  bool
	Runtime       time.Duration
	RoutedNets    int
	TotalNets     int
	DRCViolations int
	// Vias is the via count of the routed nets; ViasBeforeReassign is the
	// count before the detail stage's layer-reassignment pass.
	Vias               int
	ViasBeforeReassign int
	TimedOut           bool
	// StageSeconds is the per-stage wall-clock breakdown (span name →
	// seconds); StageOrder lists the names in first-seen order.
	StageSeconds map[string]float64
	StageOrder   []string
	// Counters are the pipeline counters of the run (A* expansions, DP heap
	// operations, rip-ups, …).
	Counters map[string]int64
}

// A Router is one of the compared routers: the name the tables print and
// the router.Options preset that makes router.Route run it (nil for ours).
type Router struct {
	Name   string
	Preset func(router.Options) router.Options
}

// The routers of Tables II and III.
var (
	Ours = Router{Name: "Ours"}
	Cai  = Router{Name: "Cai", Preset: xarch.Options}
	AARF = Router{Name: "AARF*", Preset: aarf.Options}
)

// Run routes one benchmark with one router through router.Route.
func Run(ctx context.Context, name string, r Router, budget time.Duration) (*CaseRun, error) {
	d, err := design.GenerateDense(name)
	if err != nil {
		return nil, err
	}
	col := obs.NewCollector()
	opt := router.Options{TimeBudget: budget, Rec: col}
	if r.Preset != nil {
		opt = r.Preset(opt)
	}
	out, err := router.Route(ctx, d, opt)
	if err != nil {
		return nil, err
	}
	return &CaseRun{
		StageSeconds:       col.StageSeconds(),
		StageOrder:         col.StageOrder(),
		Counters:           col.Counters(),
		Case:               name,
		Router:             r.Name,
		Routability:        out.Metrics.Routability * 100,
		Wirelength:         out.Metrics.Wirelength,
		WirelengthLB:       out.Metrics.WirelengthIsLB,
		Runtime:            out.Metrics.Runtime,
		RoutedNets:         out.Metrics.RoutedNets,
		TotalNets:          out.Metrics.TotalNets,
		DRCViolations:      out.Metrics.DRCViolations,
		Vias:               out.Metrics.Vias,
		ViasBeforeReassign: out.Metrics.ViasBeforeReassign,
		TimedOut:           out.Metrics.TimedOut,
	}, nil
}

// wlString formats a wirelength with the paper's '>' lower-bound marker.
func wlString(r *CaseRun) string {
	if r.WirelengthLB {
		return fmt.Sprintf("> %.0f", r.Wirelength)
	}
	return fmt.Sprintf("%.0f", r.Wirelength)
}

// geomean returns the geometric-mean ratio over paired runs, the aggregate
// used by the "Comp." rows (the paper uses the arithmetic mean of ratios;
// the two agree to within a percent on these spreads and the geometric mean
// is the fairer aggregate).
func geomean(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 1
	}
	prod := 1.0
	for _, r := range ratios {
		prod *= r
	}
	return math.Pow(prod, 1/float64(len(ratios)))
}
