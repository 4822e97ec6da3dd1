// Command rdlroute routes a design with the any-angle RDL router and
// reports routability, wirelength, vias, runtime and DRC status. -router
// cai or aarf runs a baseline instead: its router.Options preset through
// the same pipeline, verification gate included. It can also print
// geometry statistics, emit an SVG of any wire layer, write a JSON-lines
// event trace, and show live progress.
//
// Usage:
//
//	rdlroute [-router ours|cai|aarf] [-budget 30s] [-svg out.svg -layer 0]
//	         [-routes out.json] [-stats] [-verify off|warn|strict]
//	         [-trace out.jsonl] [-progress] [-viacost 20]
//	         [-ordering rudy|netlen|congestion]
//	         [-portfolio rudy,netlen,congestion] [-ordering-profile prof.json]
//	         [-cpuprofile cpu.out] [-memprofile mem.out]
//	         [-strict] (-design file.json | -case dense1)
//
// Interrupting the process (SIGINT/SIGTERM) cancels routing; the partial
// result routed so far is still reported. With -strict the process exits
// with code 3 when the time budget cut the run short and code 4 when nets
// were left unrouted. -verify warn runs the independent verification gate
// and prints its findings; -verify strict additionally exits with code 5
// when the gate reports any finding.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"rdlroute/internal/aarf"
	"rdlroute/internal/design"
	"rdlroute/internal/obs"
	"rdlroute/internal/portfolio"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/router"
	"rdlroute/internal/stats"
	"rdlroute/internal/svg"
	"rdlroute/internal/verify"
	"rdlroute/internal/xarch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rdlroute: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		code := 1
		switch {
		case errors.Is(err, router.ErrTimeout):
			code = 3
		case errors.Is(err, router.ErrUnroutable):
			code = 4
		case errors.Is(err, router.ErrVerifyFailed):
			code = 5
		}
		log.Print(err)
		os.Exit(code)
	}
}

// presets maps each -router name to the router.Options preset that makes
// router.Route run it; ours runs the options as given.
var presets = map[string]func(router.Options) router.Options{
	"ours": func(o router.Options) router.Options { return o },
	"cai":  xarch.Options,
	"aarf": aarf.Options,
}

// run is the testable command core.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rdlroute", flag.ContinueOnError)
	var (
		designPath = fs.String("design", "", "design JSON file to route")
		caseName   = fs.String("case", "", "generate and route a dense benchmark (dense1..dense5)")
		which      = fs.String("router", "ours", "router: ours, cai (X-architecture) or aarf (AARF*)")
		budget     = fs.Duration("budget", 30*time.Second, "time budget (0 = unlimited)")
		svgPath    = fs.String("svg", "", "write an SVG of one wire layer to this file")
		layer      = fs.Int("layer", 0, "wire layer for -svg")
		routesPath = fs.String("routes", "", "write routed geometry JSON to this file")
		showStats  = fs.Bool("stats", false, "print geometry statistics (angle histogram, per-layer WL)")
		verifyFlag = fs.String("verify", "off", "verification gate: off, warn (print findings) or strict (exit 5 on findings)")
		tracePath  = fs.String("trace", "", "write a JSON-lines event trace (spans, counters, progress) to this file")
		progress   = fs.Bool("progress", false, "print live per-stage progress to stderr")
		strict     = fs.Bool("strict", false, "fail with exit code 3 on timeout, 4 on unrouted nets")
		workers    = fs.Int("workers", 0, "pipeline parallelism: worker-pool size for the graph build and global/detail/DRC/verify; via planning stays serial (0 = GOMAXPROCS capped at 8, 1 = serial); output is identical for every value")
		viaCost    = fs.Float64("viacost", 0, "via cost in µm of equivalent wirelength: 0 = default (4×ViaWidth), negative = free vias")
		ordering   = fs.String("ordering", "", "net-ordering strategy: rudy, netlen or congestion (empty = rudy)")
		portfolioF = fs.String("portfolio", "", "comma-separated strategies raced as independent route attempts; the best result wins (e.g. rudy,netlen,congestion)")
		orderProf  = fs.String("ordering-profile", "", "JSON weight profile for the congestion ordering strategy")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("cpuprofile: %v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}
	vmode, err := router.ParseVerifyMode(*verifyFlag)
	if err != nil {
		return err
	}
	var portfolioList []string
	for _, name := range strings.Split(*portfolioF, ",") {
		if name = strings.TrimSpace(name); name != "" {
			portfolioList = append(portfolioList, name)
		}
	}
	var profile *portfolio.Profile
	if *orderProf != "" {
		p, err := portfolio.LoadProfile(*orderProf)
		if err != nil {
			return err
		}
		profile = &p
	}
	preset, ok := presets[*which]
	if !ok {
		return fmt.Errorf("unknown -router %q", *which)
	}
	if (*ordering != "" || len(portfolioList) > 0 || profile != nil || *viaCost != 0) && *which != "ours" {
		return fmt.Errorf("-ordering/-portfolio/-ordering-profile/-viacost only apply to -router ours, not %q", *which)
	}

	var d *design.Design
	switch {
	case *designPath != "":
		d, err = design.LoadFile(*designPath)
	case *caseName != "":
		d, err = design.GenerateDense(*caseName)
	default:
		return errors.New("need -design FILE or -case NAME")
	}
	if err != nil {
		return err
	}

	var recs []obs.Recorder
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Printf("trace: %v", err)
			}
		}()
		recs = append(recs, obs.NewJSONL(f))
	}
	if *progress {
		recs = append(recs, obs.NewProgress(os.Stderr, 0))
	}
	rec := obs.Multi(recs...)

	var gopt rgraph.Options
	if *viaCost != 0 { // the flag's 0 means the default cost, not free vias
		gopt.ViaCost = viaCost
	}
	opt := preset(router.Options{
		TimeBudget: *budget, Rec: rec, Verify: vmode, Parallelism: *workers,
		Ordering: *ordering, Portfolio: portfolioList, OrderingProfile: profile,
		Graph: gopt,
	})
	// Cancellation (Ctrl-C) surfaces as an error from the router together
	// with the partial result; the summary line is printed either way so the
	// work done so far is never lost.
	out, routeErr := router.Route(ctx, d, opt)
	if out == nil {
		return routeErr
	}
	m := out.Metrics
	fmt.Fprintf(stdout, "router=%s design=%s nets=%d/%d routability=%.2f%% wirelength=%.0fµm vias=%d runtime=%v drc=%d timedOut=%v\n",
		*which, d.Name, m.RoutedNets, m.TotalNets, m.Routability*100, m.Wirelength,
		m.Vias, m.Runtime.Round(time.Millisecond), m.DRCViolations, m.TimedOut)
	if m.PortfolioWinner != "" {
		for _, att := range out.Portfolio {
			marker := ""
			if att.Strategy == m.PortfolioWinner {
				marker = " winner"
			}
			if att.OK {
				fmt.Fprintf(stdout, "portfolio: %-10s routability=%.2f%% wirelength=%.0fµm vias=%d%s\n",
					att.Strategy, att.Routability*100, att.Wirelength, att.Vias, marker)
			} else {
				fmt.Fprintf(stdout, "portfolio: %-10s failed: %v\n", att.Strategy, att.Err)
			}
		}
	}
	// A strict-mode verification failure still carries the full output; hold
	// the error so the summary, stats and artifacts below are emitted before
	// the process exits with code 5.
	if routeErr != nil && !errors.Is(routeErr, router.ErrVerifyFailed) {
		return routeErr
	}
	routes, report := out.DetailResult.Routes, out.VerifyReport

	if *showStats {
		stats.Analyze(routes).Print(stdout)
	}
	if report != nil {
		fmt.Fprintf(stdout, "verify: %d nets checked, %d findings (connectivity=%d via-via=%d via-wire=%d placement=%d rule=%d)\n",
			report.CheckedNets, len(report.Problems),
			report.Count(verify.BrokenConnectivity), report.Count(verify.ViaViaSpacing),
			report.Count(verify.ViaWireSpacing), report.Count(verify.ViaPlacement),
			report.Count(verify.RuleViolation))
	}
	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			return err
		}
		if err := svg.Render(f, d, routes, *layer); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (layer %d)\n", *svgPath, *layer)
	}
	if *routesPath != "" {
		f, err := os.Create(*routesPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(routes); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *routesPath)
	}
	if *strict {
		if m.TimedOut {
			return fmt.Errorf("run exceeded the time budget: %w", router.ErrTimeout)
		}
		if unrouted := m.TotalNets - m.RoutedNets; unrouted > 0 {
			return fmt.Errorf("%d nets left unrouted: %w", unrouted, router.ErrUnroutable)
		}
	}
	// Deferred strict-verify failure, if any (exit code 5).
	return routeErr
}
