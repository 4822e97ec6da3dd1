package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rdlroute/internal/router"
)

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and workload
// tables of this package equal.
func TestBenchmarkJSONMatches(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end differs from endToEndMetrics:\n%v\n%v", bj.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer differs from perLayerMetrics:\n%v\n%v", bj.PerLayer, perLayerMetrics)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"cmd/rdlbench"}) {
		t.Errorf("paths %v", bj.Paths)
	}
}

// shortWorkload is a small stand-in for the real workloads: dense1 and two
// random designs.
func shortWorkload(t *testing.T, opt router.Options) *workload {
	t.Helper()
	ds, err := denseDesigns("dense1")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := randomPool(randomPoolSeed, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &workload{name: "short", designs: append(ds, rs...), opt: opt}
}

// TestShortRunEmitsEveryMetric runs one sample in each mode and checks that
// the last line parses and carries every metric of BENCHMARK.json with its
// unit.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	w := shortWorkload(t, router.Options{Verify: router.VerifyWarn})
	for _, tc := range []struct {
		name  string
		t     *tracer
		specs []metricSpec
	}{
		{"untraced", nil, bj.EndToEnd},
		{"traced", newTracer(), bj.PerLayer},
	} {
		var out bytes.Buffer
		if _, err := runWorkload(context.Background(), w, 1, 0, tc.t, &out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("%s: last line %q: %v", tc.name, lines[len(lines)-1], err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < len(w.designs) {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", tc.name, res.Correct, res.Attempted, res.Failed, out.String())
		}
		if len(res.Metrics) != len(tc.specs) {
			t.Errorf("%s: %d metrics, want %d", tc.name, len(res.Metrics), len(tc.specs))
		}
		for _, m := range tc.specs {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", tc.name, m.Name, got, m.Unit)
			}
		}
	}
}

// TestTracedLayersReportWork checks that every layer that runs on the short
// workload reports work; a zero means a span or counter name no longer
// matches.
func TestTracedLayersReportWork(t *testing.T) {
	w := shortWorkload(t, router.Options{Verify: router.VerifyWarn})
	var out bytes.Buffer
	res, err := runWorkload(context.Background(), w, 1, 0, newTracer(), &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"design.read_s", "viaplan.build_s", "viaplan.vias", "dt.triangulate_s", "dt.triangles",
		"rgraph.build_s", "rgraph.nodes", "rgraph.links", "global.run_s", "global.order_s",
		"global.astar_s", "global.refine_s", "global.expansions", "global.heap_pushes",
		"global.order_rounds", "detail.run_s", "detail.adjust_s", "detail.fit_s", "detail.post_s",
		"detail.fit_failures", "detail.tangent_constructions", "detail.dp_heap_ops",
		"drc.check_s", "drc.violations", "drc.grid_segments", "verify.check_s",
		"route.min_s", "runtime.cpu_s", "trace.self_sum_frac",
	} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("traced metric %s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// TestComposedMatchesRoute proves the traced composition wires the layers
// as router.Route does: equal fingerprints at Parallelism 1 and 2, and an
// equal winner for a portfolio race.
func TestComposedMatchesRoute(t *testing.T) {
	for _, opt := range []router.Options{
		{Parallelism: 1, Verify: router.VerifyWarn},
		{Parallelism: 2, Verify: router.VerifyWarn},
		{Parallelism: 2, Verify: router.VerifyWarn, Portfolio: []string{"netlen", "rudy"}},
	} {
		w := shortWorkload(t, opt)
		if len(opt.Portfolio) > 0 {
			w.designs = w.designs[:1]
		}
		r, err := newRunner(w, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		for i, d := range r.designs {
			out, err := router.Route(context.Background(), d, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := resultOf(d, out, nil)
			got := composeOp(context.Background(), r.blobs[i], opt, opTrace{t: tr, workload: w.name, op: i})
			if got.res.err != nil {
				t.Fatalf("%s %+v: %v", d.Name, opt, got.res.err)
			}
			if got.res.fp != want.fp || got.res.winner != want.winner {
				t.Errorf("%s %+v: composed fingerprint %x winner %q, router.Route %x winner %q",
					d.Name, opt, got.res.fp, got.res.winner, want.fp, want.winner)
			}
		}
		for _, s := range tr.since(0) {
			if s.End < s.Start {
				t.Errorf("span %s ends before it starts", s.Name)
			}
		}
	}
}

// TestInputsFollowSeeds checks that the random pool is a function of its
// seed, and that -seed alone sets the order samples route designs in.
func TestInputsFollowSeeds(t *testing.T) {
	encode := func(seed int64) []string {
		ds, err := randomPool(seed, 3)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, d := range ds {
			b, err := d.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		return out
	}
	if !reflect.DeepEqual(encode(1), encode(1)) {
		t.Error("the same seed gave different random designs")
	}
	if reflect.DeepEqual(encode(1), encode(2)) {
		t.Error("different seeds gave the same random designs")
	}

	w := shortWorkload(t, router.Options{})
	plans := func(seed int64) [][]int {
		r, err := newRunner(w, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		return [][]int{r.plan(), r.plan(), r.plan()}
	}
	if !reflect.DeepEqual(plans(7), plans(7)) {
		t.Error("the same -seed gave different sample orders")
	}
	if reflect.DeepEqual(plans(7), plans(8)) {
		t.Error("different -seed values gave the same sample orders")
	}
}

// TestSelfTimes checks self time with overlapping children, as concurrent
// portfolio attempts produce, and a child that outlives its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},
		{ID: 3, Parent: 0, Start: 80, End: 120},
		{ID: 4, Parent: 1, Start: 15, End: 25},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{0: 30, 1: 20, 2: 30, 3: 40, 4: 10} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

// TestCompare checks the verdicts on identical runs, injected slowdowns on
// either side of the bound and a clear speed-up, through -record files.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			res := result{Correct: true, Attempted: 1, Metrics: make(map[string]metric)}
			for _, m := range endToEndMetrics {
				v := 100.0
				if m.Unit == "s" {
					v += float64(i % 3) // times spread by 2% of the median
				}
				if m.Name == "route_s" {
					v *= scale
				}
				res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
			}
			if err := appendRecord(path, record{Workload: "dense5", Seed: int64(i), Result: res}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent := write("parent.jsonl", 1)
	verdicts := func(change string) map[string]string {
		var out bytes.Buffer
		if err := compareFiles(&out, parent, change); err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string)
		for _, line := range strings.Split(out.String(), "\n")[1:] {
			if f := strings.Fields(line); len(f) >= 2 {
				got[f[0]] = f[1]
			}
		}
		if len(got) != len(endToEndMetrics) {
			t.Fatalf("%d verdicts, want %d:\n%s", len(got), len(endToEndMetrics), out.String())
		}
		return got
	}
	for name, v := range verdicts(write("same.jsonl", 1)) {
		if v != "unchanged" {
			t.Errorf("identical runs: %s is %s, want unchanged", name, v)
		}
	}
	// A slowdown 5 points past route_s's bound.
	slow := verdicts(write("slow.jsonl", 1.05+endToEndMetrics[0].Bound))
	if slow["route_s"] != "worse" {
		t.Errorf("slowdown past the bound: route_s is %s, want worse", slow["route_s"])
	}
	if slow["vias"] != "unchanged" {
		t.Errorf("slowdown past the bound: vias is %s, want unchanged", slow["vias"])
	}
	// The same slowdown, 5 points inside the bound.
	if v := verdicts(write("slower.jsonl", 0.95+endToEndMetrics[0].Bound)); v["route_s"] != "unchanged" {
		t.Errorf("slowdown inside the bound: route_s is %s, want unchanged", v["route_s"])
	}
	if fast := verdicts(write("fast.jsonl", 0.8)); fast["route_s"] != "improved" {
		t.Errorf("20%% speed-up: route_s is %s, want improved", fast["route_s"])
	}

	few := judge(endToEndMetrics[0], []float64{1, 1}, []float64{2, 2})
	if few.Verdict != "unresolved" {
		t.Errorf("two pairs: %s, want unresolved", few.Verdict)
	}
}
