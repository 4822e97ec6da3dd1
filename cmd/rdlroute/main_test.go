package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/router"
)

func TestRunNoInput(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), nil, &sb); err == nil {
		t.Error("no input must error")
	}
}

func TestRunUnknownRouter(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-case", "dense1", "-router", "magic"}, &sb); err == nil {
		t.Error("unknown router must error")
	}
}

func TestRunCaseOurs(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-case", "dense1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"router=ours", "design=dense1", "routability=100.00%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBaselines(t *testing.T) {
	for _, r := range []string{"cai", "aarf"} {
		var sb strings.Builder
		if err := run(context.Background(), []string{"-case", "dense1", "-router", r}, &sb); err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if !strings.Contains(sb.String(), "router="+r) {
			t.Errorf("%s output wrong: %s", r, sb.String())
		}
	}
}

func TestRunDesignFileAndOutputs(t *testing.T) {
	dir := t.TempDir()
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	designPath := filepath.Join(dir, "d.json")
	if err := d.SaveFile(designPath); err != nil {
		t.Fatal(err)
	}
	svgPath := filepath.Join(dir, "out.svg")
	routesPath := filepath.Join(dir, "routes.json")

	var sb strings.Builder
	err = run(context.Background(), []string{
		"-design", designPath,
		"-svg", svgPath, "-layer", "0",
		"-routes", routesPath,
		"-stats",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	// Stats were printed.
	if !strings.Contains(sb.String(), "angle histogram") {
		t.Error("stats output missing")
	}
	// SVG exists and looks like SVG.
	svgData, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(svgData), "<svg") {
		t.Error("SVG output malformed")
	}
	// Routes JSON parses back into routes.
	routesData, err := os.ReadFile(routesPath)
	if err != nil {
		t.Fatal(err)
	}
	var routes []*detail.Route
	if err := json.Unmarshal(routesData, &routes); err != nil {
		t.Fatal(err)
	}
	if len(routes) != len(d.Nets) {
		t.Errorf("routes JSON has %d entries, want %d", len(routes), len(d.Nets))
	}
	for _, rt := range routes {
		if rt == nil || len(rt.Segs) == 0 {
			t.Fatal("routes JSON lost geometry")
		}
	}
}

func TestRunTraceFlag(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.jsonl")
	var sb strings.Builder
	if err := run(context.Background(), []string{"-case", "dense1", "-trace", tracePath}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	// Every line is valid JSON with the mandatory fields; the five
	// top-level pipeline stages all span; the A* and DP counters are live.
	stages := map[string]bool{}
	counters := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev struct {
			TMs   *float64 `json:"t_ms"`
			Ev    string   `json:"ev"`
			Stage string   `json:"stage"`
			Name  string   `json:"name"`
			Delta int64    `json:"delta"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line not JSON: %q: %v", line, err)
		}
		if ev.TMs == nil || ev.Ev == "" {
			t.Fatalf("trace line missing t_ms/ev: %q", line)
		}
		if ev.Ev == "stage_end" {
			stages[ev.Stage] = true
		}
		if ev.Ev == "count" {
			counters[ev.Name] += ev.Delta
		}
	}
	for _, want := range []string{"viaplan", "rgraph", "global", "detail", "drc"} {
		if !stages[want] {
			t.Errorf("trace missing stage_end for %q", want)
		}
	}
	if counters["global.astar.expansions"] == 0 {
		t.Error("trace reports zero A* expansions")
	}
	if counters["detail.dp.heap_ops"] == 0 {
		t.Error("trace reports zero DP heap operations")
	}
}

func TestRunStrictFlagCleanRun(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-case", "dense1", "-strict"}, &sb); err != nil {
		t.Fatalf("strict must pass on a clean full route: %v", err)
	}
}

func TestRunMissingDesignFile(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-design", "/no/such/file.json"}, &sb); err == nil {
		t.Error("missing design file must error")
	}
}

func TestRunVerifyFlag(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-case", "dense1", "-verify", "warn"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "verify: 22 nets checked") {
		t.Errorf("verify output missing:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "connectivity=0") {
		t.Error("verify should report clean connectivity")
	}
}

func TestRunVerifyStrictFindings(t *testing.T) {
	// dense1 routes with a known handful of spacing findings (the golden bar
	// allows up to 40), so strict mode must fail with ErrVerifyFailed — and
	// still print the summary and the routing result first.
	var sb strings.Builder
	err := run(context.Background(), []string{"-case", "dense1", "-verify", "strict"}, &sb)
	if !errors.Is(err, router.ErrVerifyFailed) {
		t.Fatalf("strict verify error = %v, want ErrVerifyFailed", err)
	}
	if !strings.Contains(sb.String(), "router=ours") {
		t.Errorf("routing summary missing before the verify failure:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "verify: 22 nets checked") {
		t.Errorf("verify summary missing:\n%s", sb.String())
	}
}

func TestRunVerifyBaselines(t *testing.T) {
	// The baseline routers are presets of the same pipeline, so -verify
	// runs the same gate on their geometry, and strict fails on their
	// findings. (They may leave nets unrouted, so only the summary's
	// presence is pinned, not its counts.)
	for _, r := range []string{"cai", "aarf"} {
		var sb strings.Builder
		if err := run(context.Background(), []string{"-case", "dense1", "-router", r, "-verify", "warn"}, &sb); err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if !strings.Contains(sb.String(), "nets checked") {
			t.Errorf("%s verify output missing:\n%s", r, sb.String())
		}
	}
	var sb strings.Builder
	err := run(context.Background(), []string{"-case", "dense1", "-router", "cai", "-verify", "strict"}, &sb)
	if !errors.Is(err, router.ErrVerifyFailed) {
		t.Fatalf("cai strict verify error = %v, want ErrVerifyFailed", err)
	}
	if !strings.Contains(sb.String(), "router=cai") || !strings.Contains(sb.String(), "drc=") {
		t.Errorf("cai summary missing before the verify failure:\n%s", sb.String())
	}
}

func TestRunVerifyBadMode(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-case", "dense1", "-verify", "sometimes"}, &sb); err == nil {
		t.Error("unknown verify mode must error")
	}
}

func TestRunPortfolioFlag(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-case", "dense1", "-portfolio", "rudy, netlen"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"router=ours", "portfolio: rudy", "portfolio: netlen", "winner"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunOrderingFlag(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-case", "dense1", "-ordering", "netlen"}, &sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); strings.Contains(out, "portfolio:") {
		t.Errorf("single-ordering run printed portfolio rows:\n%s", out)
	}
	if err := run(context.Background(), []string{"-case", "dense1", "-ordering", "zigzag"}, &sb); err == nil {
		t.Error("unknown ordering must error")
	}
}

func TestRunOrderingNeedsOursRouter(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-case", "dense1", "-router", "cai", "-ordering", "rudy"}, &sb); err == nil {
		t.Error("-ordering with -router cai must error")
	}
	if err := run(context.Background(), []string{"-case", "dense1", "-router", "aarf", "-portfolio", "rudy,netlen"}, &sb); err == nil {
		t.Error("-portfolio with -router aarf must error")
	}
}
