// Command rdlbench is the repository's pipeline benchmark. One caller routes
// a named workload's designs with router.Route, issuing each call only after
// the previous one returns (a closed loop with one client), for a fixed time.
// It checks every output and prints the end-to-end metrics, each with its
// unit and regression bound.
//
// With -trace 1 it instead alternates untraced samples with traced ones,
// which re-execute the pipeline by calling each layer's public function with
// a span around every call, and prints the per-layer metrics.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash cmd/rdlbench/run.sh --workload dense5 --seed 1 --seconds 27 --trace 0
//	bash cmd/rdlbench/run.sh                       # every workload in turn
//	bash cmd/rdlbench/run.sh -compare parent.jsonl change.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricSpec declares one metric. BENCHMARK.json lists the same metrics;
// TestBenchmarkJSONMatches keeps the two equal.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are what a caller of router.Route sees, measured with
// tracing off. Bound is the share of the parent's median by which a metric
// may get worse before a change counts as a regression; the quality metrics
// repeat exactly, so their bound only absorbs float formatting.
var endToEndMetrics = []metricSpec{
	{"route_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.03},
	{"heap_live_mb", "MB", "lower", 0.03},
	{"ok_frac", "ratio", "higher", 0.001},
	{"routability", "ratio", "higher", 0.001},
	{"wirelength_um", "um", "lower", 0.001},
	{"vias", "count", "lower", 0.001},
	{"drc_findings", "count", "lower", 0.001},
	{"verify_findings", "count", "lower", 0.001},
}

// perLayerMetrics come from the traced run. Times are bench-side span
// durations (or the program's own spans, for the sub-stages), summed over a
// sample's ops; counts are the program's counters, summed likewise.
var perLayerMetrics = []metricSpec{
	{Name: "design.read_s", Unit: "s", Better: "lower"},
	{Name: "viaplan.build_s", Unit: "s", Better: "lower"},
	{Name: "viaplan.vias", Unit: "count", Better: "lower"},
	{Name: "dt.triangulate_s", Unit: "s", Better: "lower"},
	{Name: "dt.triangles", Unit: "count", Better: "lower"},
	{Name: "rgraph.build_s", Unit: "s", Better: "lower"},
	{Name: "rgraph.nodes", Unit: "count", Better: "lower"},
	{Name: "rgraph.links", Unit: "count", Better: "lower"},
	{Name: "global.run_s", Unit: "s", Better: "lower"},
	{Name: "global.order_s", Unit: "s", Better: "lower"},
	{Name: "global.astar_s", Unit: "s", Better: "lower"},
	{Name: "global.refine_s", Unit: "s", Better: "lower"},
	{Name: "global.expansions", Unit: "count", Better: "lower"},
	{Name: "global.heap_pushes", Unit: "count", Better: "lower"},
	{Name: "global.ripups", Unit: "count", Better: "lower"},
	{Name: "global.order_rounds", Unit: "count", Better: "lower"},
	{Name: "global.spec.hits", Unit: "count", Better: "higher"},
	{Name: "global.spec.misses", Unit: "count", Better: "lower"},
	{Name: "global.spec.wasted_expansions", Unit: "count", Better: "lower"},
	{Name: "global.spec.useful_frac", Unit: "ratio", Better: "higher"},
	{Name: "portfolio.race_s", Unit: "s", Better: "lower"},
	{Name: "portfolio.attempt_s", Unit: "s", Better: "lower"},
	{Name: "portfolio.slowest_attempt_s", Unit: "s", Better: "lower"},
	{Name: "detail.run_s", Unit: "s", Better: "lower"},
	{Name: "detail.adjust_s", Unit: "s", Better: "lower"},
	{Name: "detail.fit_s", Unit: "s", Better: "lower"},
	{Name: "detail.post_s", Unit: "s", Better: "lower"},
	{Name: "detail.fit_failures", Unit: "count", Better: "lower"},
	{Name: "detail.fit_retries", Unit: "count", Better: "lower"},
	{Name: "detail.tangent_constructions", Unit: "count", Better: "lower"},
	{Name: "detail.dp_heap_ops", Unit: "count", Better: "lower"},
	{Name: "detail.vias_removed", Unit: "count", Better: "higher"},
	{Name: "drc.check_s", Unit: "s", Better: "lower"},
	{Name: "drc.violations", Unit: "count", Better: "lower"},
	{Name: "drc.grid_segments", Unit: "count", Better: "lower"},
	{Name: "verify.check_s", Unit: "s", Better: "lower"},
	{Name: "verify.findings", Unit: "count", Better: "lower"},
	{Name: "route.min_s", Unit: "s", Better: "lower"},
	{Name: "route.p75_s", Unit: "s", Better: "lower"},
	{Name: "runtime.steal_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},
	{Name: "runtime.cpu_s", Unit: "s", Better: "lower"},
	{Name: "runtime.cpu_per_wall", Unit: "ratio", Better: "higher"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.self_sum_frac", Unit: "ratio", Better: "higher"},
}

// result is a run's outcome, printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as -record appends it, and as -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rdlbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rdlbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of the sample order")
	seconds := fs.Int("seconds", 27, "seconds of timed samples per workload; the warm-up sample and the set-up repetitions do not count")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", "", "with -trace 1, write the traced spans to this JSONL file")
	rec := fs.String("record", "", "append each run's workload, seed and result to this JSONL file")
	compare := fs.Bool("compare", false, "compare two -record files: rdlbench -compare parent.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two files: parent.jsonl change.jsonl")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *spans != "" && *trace != 1 {
		return errors.New("-spans needs -trace 1")
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	var t *tracer
	if *trace == 1 {
		t = newTracer()
	}
	for _, n := range names {
		w, err := newWorkload(n)
		if err != nil {
			return err
		}
		res, err := runWorkload(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, t, stdout)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		if *rec != "" {
			if err := appendRecord(*rec, record{Workload: n, Seed: *seed, Trace: *trace, Result: res}); err != nil {
				return err
			}
		}
	}
	if t != nil && *spans != "" {
		return t.writeSpans(*spans)
	}
	return nil
}

// runWorkload runs one workload, prints its metrics as a table followed by
// the result line, and returns the result. A nil tracer measures the
// end-to-end metrics; a tracer measures the per-layer ones.
func runWorkload(ctx context.Context, w *workload, seed int64, budget time.Duration,
	t *tracer, stdout io.Writer) (result, error) {
	r, err := newRunner(w, seed, budget)
	if err != nil {
		return result{}, err
	}
	specs, mode := endToEndMetrics, "end-to-end, tracing off"
	var values map[string]float64
	var samples int
	note := ""
	if t == nil {
		s, err := r.runTimed(ctx)
		if err != nil {
			return result{}, err
		}
		samples = len(s)
		values = r.endToEnd(s)
		var walls []float64
		var steal float64
		for _, x := range s {
			walls = append(walls, x.wall.Seconds())
			steal += x.steal
		}
		note = fmt.Sprintf("  sample wall times: min %.4g s, median %.4g s, p75 %.4g s; host steal during them %.3g s\n",
			minimum(walls), median(walls), nearestRank(walls, 0.75), steal)
	} else {
		specs, mode = perLayerMetrics, "per-layer, traced"
		plain, traced := r.runTraced(ctx, t)
		samples = len(traced)
		values = perLayer(plain, traced)
	}

	fmt.Fprintf(stdout, "workload %s (%s): seed %d, %d samples × %d designs after 1 warm-up, %d ops, %d failed; GOMAXPROCS %d, %s\n",
		w.name, mode, seed, samples, len(w.designs), r.ops, r.failed, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprint(stdout, note)
	for _, f := range r.failures {
		fmt.Fprintln(stdout, "  failed:", f)
	}
	res := result{Correct: r.failed == 0, Attempted: r.ops, Failed: r.failed, Metrics: make(map[string]metric)}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		bound := ""
		if m.Bound > 0 {
			sign := "+"
			if m.Better == "higher" {
				sign = "-"
			}
			bound = fmt.Sprintf("bound %s%g%%", sign, m.Bound*100)
		}
		fmt.Fprintf(stdout, "  %-30s %16.6g %-6s %-6s %s\n", m.Name, v, m.Unit, m.Better, bound)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(stdout, string(line))
	return res, nil
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
