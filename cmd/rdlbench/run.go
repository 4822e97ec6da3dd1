package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/router"
)

// setup_s is the median over setupReps repetitions, each the fastest of
// setupPasses passes that decode every design from a freshly collected heap.
// A shared host switches between two CPU speeds every few tens of
// milliseconds, and a single pass of a few milliseconds lands on one speed
// or the other. The host's speed also drifts by tens of percent over
// seconds to minutes, so the repetitions are spread evenly over the timed
// run rather than run in one burst of a second or two before it.
const (
	setupReps   = 20
	setupPasses = 8
)

// runner routes one workload: it owns the inputs, the per-design reference
// fingerprints and the op and failure counts.
type runner struct {
	w       *workload
	budget  time.Duration
	blobs   [][]byte         // canonical JSON of every design
	designs []*design.Design // decoded from blobs during set-up
	setup   []float64        // seconds of each set-up repetition
	order   *rand.Rand       // drawn from -seed; permutes each sample

	ref       []uint64 // router.Route's fingerprint per design
	refWinner []string
	haveRef   []bool

	ops, failed int
	failures    []string // the first few failure reasons
}

// newRunner encodes the workload's designs and decodes them in a first
// set-up repetition.
func newRunner(w *workload, seed int64, budget time.Duration) (*runner, error) {
	n := len(w.designs)
	r := &runner{
		w: w, budget: budget,
		order:     rand.New(rand.NewSource(seed)),
		ref:       make([]uint64, n),
		refWinner: make([]string, n),
		haveRef:   make([]bool, n),
	}
	for _, d := range w.designs {
		b, err := d.CanonicalJSON()
		if err != nil {
			return nil, err
		}
		r.blobs = append(r.blobs, b)
	}
	if err := r.setUp(); err != nil {
		return nil, err
	}
	return r, nil
}

// setUp times one set-up repetition: decoding every design, the per-run
// input cost a caller pays. The designs of the first repetition are the
// ones the run routes.
func (r *runner) setUp() error {
	fastest := math.Inf(1)
	for pass := 0; pass < setupPasses; pass++ {
		runtime.GC() // every pass starts from the same heap
		start := time.Now()
		ds, err := decodeAll(r.blobs)
		fastest = math.Min(fastest, time.Since(start).Seconds())
		if err != nil {
			return err
		}
		if r.designs == nil {
			r.designs = ds
		}
	}
	r.setup = append(r.setup, fastest)
	return nil
}

// setUpDue runs set-up repetitions until there are as many as the share of
// the budget that routed has used calls for: one at the start, setupReps
// once the budget is spent.
func (r *runner) setUpDue(routed time.Duration) error {
	due := setupReps
	if routed < r.budget {
		due = 1 + int(int64(setupReps-1)*int64(routed)/int64(r.budget))
	}
	for len(r.setup) < due {
		if err := r.setUp(); err != nil {
			return err
		}
	}
	return nil
}

func decodeAll(blobs [][]byte) ([]*design.Design, error) {
	ds := make([]*design.Design, len(blobs))
	for i, b := range blobs {
		d, err := design.ReadJSON(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		ds[i] = d
	}
	return ds, nil
}

// plan returns the order one sample routes the designs in.
func (r *runner) plan() []int { return r.order.Perm(len(r.designs)) }

// routeOne calls router.Route, returning a panic as an error.
func routeOne(ctx context.Context, d *design.Design, opt router.Options) (out *router.Output, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return router.Route(ctx, d, opt)
}

func resultOf(d *design.Design, out *router.Output, err error) opResult {
	if err != nil {
		return opResult{err: err}
	}
	return summarize(d, out.DetailResult, out.Violations, out.VerifyReport, out.Metrics.PortfolioWinner)
}

// warmUp routes every design once, untimed, and keeps router.Route's
// fingerprints as the reference every later op is checked against.
func (r *runner) warmUp(ctx context.Context) {
	for i, d := range r.designs {
		out, err := routeOne(ctx, d, r.w.opt)
		if res := resultOf(d, out, err); res.err == nil {
			r.setRef(i, res)
		}
	}
}

func (r *runner) setRef(i int, res opResult) {
	r.ref[i], r.refWinner[i], r.haveRef[i] = res.fp, res.winner, true
}

// check counts one op of design i and decides whether it failed: an error
// or panic, a connectivity finding, or output that differs from
// router.Route's for the same design. composed marks an op of the traced
// run.
func (r *runner) check(i int, res opResult, composed bool) {
	r.ops++
	why := ""
	switch {
	case res.err != nil:
		why = res.err.Error()
	case res.connectivity > 0:
		why = fmt.Sprintf("verify reports %d connectivity findings", res.connectivity)
	case !r.haveRef[i] && composed:
		why = "router.Route never succeeded, so the composed pipeline has nothing to match"
	case !r.haveRef[i]:
		r.setRef(i, res)
	case res.fp != r.ref[i] && composed:
		why = "the composed pipeline's fingerprint differs from router.Route's"
	case res.fp != r.ref[i]:
		why = "route fingerprint differs from the design's first sample"
	case res.winner != r.refWinner[i]:
		why = fmt.Sprintf("portfolio winner %q differs from router.Route's %q", res.winner, r.refWinner[i])
	}
	if why == "" {
		return
	}
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, r.designs[i].Name+": "+why)
	}
}

// procStats is a snapshot of the process counters a sample reports deltas of.
type procStats struct {
	cpu        float64 // user+system CPU seconds
	steal      float64 // seconds the host withheld from the machine's CPUs
	gcCPU      float64 // the runtime's estimate of GC CPU seconds
	numGC      uint32
	totalAlloc uint64
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	s := procStats{numGC: ms.NumGC, totalAlloc: ms.TotalAlloc}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gc[0].Value.Float64()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	s.steal = stealSeconds()
	return s
}

// stealSeconds reads the steal column of /proc/stat: time the hypervisor
// ran something else while one of this machine's CPUs wanted to run. It
// is 0 where the file or the column is missing.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// peakRSSBytes is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024
}

// sample is one timed pass over the workload's designs with tracing off.
type sample struct {
	wall     time.Duration
	alloc    uint64 // bytes allocated during the pass
	heapLive uint64 // heap in use after a GC, with the pass's outputs alive
	cpu      float64
	gcCPU    float64
	gcs      uint32
	steal    float64
	q        quality
}

// timedSample routes every design once with router.Route, one call after
// the previous returns. Only the Route calls are timed; a GC before the pass
// gives every sample the same starting heap.
func (r *runner) timedSample(ctx context.Context) sample {
	order := r.plan()
	outs := make([]*router.Output, len(order))
	errs := make([]error, len(order))
	runtime.GC()
	before := readProc()
	start := time.Now()
	for k, i := range order {
		outs[k], errs[k] = routeOne(ctx, r.designs[i], r.w.opt)
	}
	s := sample{wall: time.Since(start)}
	after := readProc()
	s.alloc = after.totalAlloc - before.totalAlloc
	s.cpu = after.cpu - before.cpu
	s.gcCPU = after.gcCPU - before.gcCPU
	s.gcs = after.numGC - before.numGC
	s.steal = after.steal - before.steal

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.heapLive = ms.HeapAlloc
	for k, i := range order {
		res := resultOf(r.designs[i], outs[k], errs[k])
		r.check(i, res, false)
		s.q.add(res)
	}
	return s
}

// runTimed is a run with tracing off: one warm-up sample, then timed
// samples until the budget would be exceeded by one more. The set-up
// repetitions run between samples and do not count against the budget.
func (r *runner) runTimed(ctx context.Context) ([]sample, error) {
	r.warmUp(ctx)
	var samples []sample
	var routed time.Duration
	for {
		if err := r.setUpDue(routed); err != nil {
			return nil, err
		}
		start := time.Now()
		s := r.timedSample(ctx)
		samples = append(samples, s)
		routed += time.Since(start)
		if routed+s.wall > r.budget {
			return samples, r.setUpDue(r.budget)
		}
	}
}

// endToEnd computes every end-to-end metric of a run with tracing off.
func (r *runner) endToEnd(samples []sample) map[string]float64 {
	var walls, allocs, heaps, rout, wl, vias, drc, ver []float64
	for _, s := range samples {
		walls = append(walls, s.wall.Seconds())
		allocs = append(allocs, float64(s.alloc)/1e6)
		heaps = append(heaps, float64(s.heapLive)/1e6)
		rout = append(rout, s.q.routability())
		wl = append(wl, s.q.wirelength)
		vias = append(vias, float64(s.q.vias))
		drc = append(drc, float64(s.q.drc))
		ver = append(ver, float64(s.q.verify))
	}
	return map[string]float64{
		"route_s":         median(walls),
		"setup_s":         median(r.setup),
		"alloc_mb":        median(allocs),
		"heap_live_mb":    median(heaps),
		"ok_frac":         ratio(float64(r.ops-r.failed), float64(r.ops)),
		"routability":     median(rout),
		"wirelength_um":   median(wl),
		"vias":            median(vias),
		"drc_findings":    median(drc),
		"verify_findings": median(ver),
	}
}

// tracedSample is one pass over the workload's designs through composeOp.
type tracedSample struct {
	wall    time.Duration // the ops' route spans, summed
	covered time.Duration // the part of wall inside layer spans
	layers  map[string]float64
}

// runTraced is a run with tracing on: one warm-up sample, then pairs of an
// untraced sample (router.Route, for the wall-time and runtime metrics) and
// a traced sample, until the budget would be exceeded by one more pair.
func (r *runner) runTraced(ctx context.Context, t *tracer) ([]sample, []tracedSample) {
	r.warmUp(ctx)
	var plain []sample
	var traced []tracedSample
	start := time.Now()
	for {
		pair := time.Now()
		plain = append(plain, r.timedSample(ctx))
		traced = append(traced, r.tracedSample(ctx, t, len(traced)))
		if time.Since(start)+time.Since(pair) > r.budget {
			return plain, traced
		}
	}
}

// programStages maps the program's own spans, as an obs.Collector totals
// them, to per-layer metrics.
var programStages = map[string]string{
	"global.order":  "global.order_s",
	"global.astar":  "global.astar_s",
	"global.refine": "global.refine_s",
	"detail.adjust": "detail.adjust_s",
	"detail.fit":    "detail.fit_s",
}

// programCounters maps the program's own counters to per-layer metrics;
// counters that map to the same metric are summed.
var programCounters = map[string]string{
	"viaplan.vias":                     "viaplan.vias",
	"rgraph.via_nodes":                 "rgraph.nodes",
	"rgraph.edge_nodes":                "rgraph.nodes",
	"rgraph.links":                     "rgraph.links",
	"global.astar.expansions":          "global.expansions",
	"global.astar.heap_pushes":         "global.heap_pushes",
	"global.ripups":                    "global.ripups",
	"global.order_rounds":              "global.order_rounds",
	"global.spec.hits":                 "global.spec.hits",
	"global.spec.misses":               "global.spec.misses",
	"global.spec.wasted_expansions":    "global.spec.wasted_expansions",
	"detail.fit.failures":              "detail.fit_failures",
	"detail.fit.retries":               "detail.fit_retries",
	"detail.fit.tangent_constructions": "detail.tangent_constructions",
	"detail.dp.heap_ops":               "detail.dp_heap_ops",
	"detail.reassign.vias_removed":     "detail.vias_removed",
	"drc.grid.segments":                "drc.grid_segments",
}

// tracedSample routes every design once through composeOp and sums each
// layer's numbers over the sample's ops.
func (r *runner) tracedSample(ctx context.Context, t *tracer, idx int) tracedSample {
	ts := tracedSample{layers: make(map[string]float64)}
	var attempts []float64
	var slowest float64
	runtime.GC()
	for _, i := range r.plan() {
		first := t.count()
		c := composeOp(ctx, r.blobs[i], r.w.opt, opTrace{t: t, workload: r.w.name, sample: idx, op: r.ops})
		r.check(i, c.res, true)

		spans := t.since(first)
		self := selfTimes(spans)
		var opSlowest float64
		for _, s := range spans {
			switch s.Name {
			case "route":
				ts.wall += s.dur()
				ts.covered += s.dur() - self[s.ID]
			case "portfolio.attempt":
				attempts = append(attempts, s.dur().Seconds())
				opSlowest = max(opSlowest, s.dur().Seconds())
			default:
				ts.layers[s.Name+"_s"] += s.dur().Seconds()
			}
		}
		slowest += opSlowest
		for _, col := range c.cols {
			for stage, sec := range col.StageSeconds() {
				if m, ok := programStages[stage]; ok {
					ts.layers[m] += sec
				}
			}
			for name, v := range col.Counters() {
				if m, ok := programCounters[name]; ok {
					ts.layers[m] += float64(v)
				}
			}
		}
		ts.layers["dt.triangles"] += float64(c.triangles)
		ts.layers["drc.violations"] += float64(c.res.drc)
		ts.layers["verify.findings"] += float64(c.res.verifyOwn)
	}

	l := ts.layers
	l["detail.post_s"] = l["detail.run_s"] - l["detail.adjust_s"] - l["detail.fit_s"]
	l["global.spec.useful_frac"] = 1
	if all := l["global.expansions"] + l["global.spec.wasted_expansions"]; all > 0 {
		l["global.spec.useful_frac"] = 1 - l["global.spec.wasted_expansions"]/all
	}
	l["portfolio.attempt_s"] = median(attempts)
	l["portfolio.slowest_attempt_s"] = slowest
	return ts
}

// perLayer computes every per-layer metric of a run with tracing on: the
// median over traced samples of each layer's numbers, the runtime's numbers
// from the untraced samples, and the tracing overhead between the two.
func perLayer(plain []sample, traced []tracedSample) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range perLayerMetrics {
		var vs []float64
		for _, ts := range traced {
			vs = append(vs, ts.layers[m.Name])
		}
		out[m.Name] = median(vs)
	}

	var walls, cpu, gcCPU, gcs, util, steal, tracedWalls, accounted []float64
	for _, s := range plain {
		walls = append(walls, s.wall.Seconds())
		cpu = append(cpu, s.cpu)
		gcCPU = append(gcCPU, s.gcCPU)
		gcs = append(gcs, float64(s.gcs))
		util = append(util, ratio(s.cpu, s.wall.Seconds()))
		steal = append(steal, s.steal)
	}
	for _, ts := range traced {
		tracedWalls = append(tracedWalls, ts.wall.Seconds())
		accounted = append(accounted, ratio(ts.covered.Seconds(), ts.wall.Seconds()))
	}
	out["route.min_s"] = minimum(walls)
	out["route.p75_s"] = nearestRank(walls, 0.75)
	out["runtime.steal_s"] = median(steal)
	out["runtime.cpu_s"] = median(cpu)
	out["runtime.gc_cpu_s"] = median(gcCPU)
	out["runtime.gc_cycles"] = median(gcs)
	out["runtime.cpu_per_wall"] = median(util)
	out["runtime.peak_rss_mb"] = peakRSSBytes() / 1e6
	out["trace.overhead_frac"] = ratio(median(tracedWalls)-median(walls), median(walls))
	out["trace.self_sum_frac"] = median(accounted)
	return out
}
