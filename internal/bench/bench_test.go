package bench

import (
	"context"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/portfolio"
)

func TestTableIOutput(t *testing.T) {
	var sb strings.Builder
	if err := TableI(&sb, Config{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"dense1", "dense5", "324", "1444", "261"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 7 { // title + header + 5 rows
		t.Errorf("Table I has %d lines, want 7", lines)
	}
}

func TestTableIUnknownCase(t *testing.T) {
	if err := TableI(io.Discard, Config{Cases: []string{"nope"}}); err == nil {
		t.Error("unknown case must error")
	}
}

func TestFig2Series(t *testing.T) {
	rules := design.DefaultRules()
	rows := Fig2(420, rules)
	if len(rows) != 19 { // 0..90 step 5
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FixedCapacity > r.AnyAngleCapacity {
			t.Errorf("theta %v: fixed %d exceeds any-angle %d",
				r.ThetaDeg, r.FixedCapacity, r.AnyAngleCapacity)
		}
		if r.Ratio < 0.9 || r.Ratio > 1.0+1e-9 {
			t.Errorf("theta %v: ratio %v outside [cos22.5°, 1]", r.ThetaDeg, r.Ratio)
		}
	}
	// X-architecture orientations lose nothing at multiples of 45°.
	for _, deg := range []int{0, 9, 18} { // indices of 0°, 45°, 90°
		if rows[deg].FixedCapacity != rows[deg].AnyAngleCapacity {
			t.Errorf("at %v° fixed capacity should equal any-angle", rows[deg].ThetaDeg)
		}
	}
	// The worst sampled angle is near 22.5° where utilization ≈ cos(22.5°).
	worst := 1.0
	for _, r := range rows {
		if r.Ratio < worst {
			worst = r.Ratio
		}
	}
	if math.Abs(worst-math.Cos(math.Pi/8)) > 0.02 {
		t.Errorf("worst ratio %v far from cos(22.5°)", worst)
	}
}

func TestPrintFig2(t *testing.T) {
	var sb strings.Builder
	PrintFig2(&sb, design.DefaultRules())
	if !strings.Contains(sb.String(), "worst-case") {
		t.Error("Fig. 2 output incomplete")
	}
}

func TestWlString(t *testing.T) {
	r := &CaseRun{Wirelength: 1234.6}
	if got := wlString(r); got != "1235" {
		t.Errorf("wlString = %q", got)
	}
	r.WirelengthLB = true
	if got := wlString(r); got != "> 1235" {
		t.Errorf("lower-bound wlString = %q", got)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean(nil); g != 1 {
		t.Errorf("empty geomean = %v", g)
	}
	if g := geomean([]float64{4, 1}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean(4,1) = %v", g)
	}
	if g := geomean([]float64{2, 2, 2}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean(2,2,2) = %v", g)
	}
}

func TestRunOursSmall(t *testing.T) {
	r, err := Run(context.Background(), "dense1", Ours, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.Router != "Ours" || r.Case != "dense1" {
		t.Errorf("labels wrong: %+v", r)
	}
	if r.Routability != 100 {
		t.Errorf("routability = %v", r.Routability)
	}
	if r.TotalNets != 22 || r.RoutedNets != 22 {
		t.Errorf("net counts: %d/%d", r.RoutedNets, r.TotalNets)
	}
}

func TestTableIIShapeSmall(t *testing.T) {
	// The headline Table II shape on the smallest case: both 100% routable,
	// the traditional router strictly longer.
	var sb strings.Builder
	cmp, err := TableII(context.Background(), &sb, Config{Cases: []string{"dense1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != 1 {
		t.Fatalf("rows = %d", len(cmp.Rows))
	}
	cai, ours := cmp.Rows[0][0], cmp.Rows[0][1]
	if cai.Routability != 100 || ours.Routability != 100 {
		t.Errorf("routability: cai %v ours %v", cai.Routability, ours.Routability)
	}
	if cai.Wirelength <= ours.Wirelength {
		t.Errorf("Cai WL %v not longer than ours %v", cai.Wirelength, ours.Wirelength)
	}
	if cai.Vias <= 0 || ours.Vias <= 0 {
		t.Errorf("via counts missing: cai %d ours %d", cai.Vias, ours.Vias)
	}
	for _, r := range cmp.Rows[0] {
		if r.ViasBeforeReassign < r.Vias {
			t.Errorf("%s: ViasBeforeReassign %d below Vias %d", r.Router, r.ViasBeforeReassign, r.Vias)
		}
		// Both routers run the one pipeline, so both runtimes cover the
		// same stages, DRC included.
		for _, stage := range topStages {
			if _, ok := r.StageSeconds[stage]; !ok {
				t.Errorf("%s: no %s span", r.Router, stage)
			}
		}
	}
	out := sb.String()
	if !strings.Contains(out, "Comp.") {
		t.Error("comparison row missing")
	}
	for _, want := range []string{"V(Cai)", "V(Ours)"} {
		if !strings.Contains(out, want) {
			t.Errorf("via column %q missing:\n%s", want, out)
		}
	}
}

// TestComparisonRowColumns renders a two-row Comparison and checks that
// every value of the Comp. row sits under its header column: the header
// label whose column holds the value's last character.
func TestComparisonRowColumns(t *testing.T) {
	run := func(router string, wl float64, vias int, rt time.Duration) *CaseRun {
		return &CaseRun{Case: "c", Router: router, Routability: 100, Wirelength: wl, Vias: vias, Runtime: rt}
	}
	cmp := &Comparison{Baseline: "Base", Rows: [][2]*CaseRun{
		{run("Base", 1100, 40, 3*time.Second), run("Ours", 1000, 20, time.Second)},
		{run("Base", 2200, 64, 12*time.Second), run("Ours", 2000, 8, 4*time.Second)},
	}}
	var sb strings.Builder
	printComparison(&sb, "t", cmp)
	lines := strings.Split(sb.String(), "\n")
	header := lines[1]
	var comp string
	for _, l := range lines {
		if strings.HasPrefix(l, "Comp.") {
			comp = l
		}
	}
	// Header labels and their start columns; a label's column runs up to
	// the next label.
	type field struct {
		text       string
		start, end int // [start, end)
	}
	fields := func(line string) []field {
		var out []field
		for i := 0; i < len(line); {
			if line[i] == ' ' || line[i] == '|' {
				i++
				continue
			}
			j := i
			for j < len(line) && line[j] != ' ' {
				j++
			}
			out = append(out, field{line[i:j], i, j})
			i = j
		}
		return out
	}
	labels := fields(header)
	columnOf := func(pos int) string {
		col := ""
		for _, l := range labels {
			if l.start <= pos {
				col = l.text
			}
		}
		return col
	}
	want := []struct{ value, column string }{
		{"Comp.", "Case"},
		{"1.00000", "R%(Base)"}, {"1", "R%(Ours)"},
		{"1.100", "WL(Base)"}, {"1", "WL(Ours)"},
		{"4.00", "V(Base)"}, {"1", "V(Ours)"}, // geomean of 40/20 and 64/8
		{"3.00", "T(Base)"}, {"1", "T(Ours)"},
	}
	got := fields(comp)
	if len(got) != len(want) {
		t.Fatalf("Comp. row has %d fields, want %d:\n%s\n%s", len(got), len(want), header, comp)
	}
	for i, w := range want {
		if got[i].text != w.value || columnOf(got[i].end-1) != w.column {
			t.Errorf("Comp. field %d = %q under %q, want %q under %q:\n%s\n%s",
				i, got[i].text, columnOf(got[i].end-1), w.value, w.column, header, comp)
		}
	}
}

func TestTableIIIShapeSmall(t *testing.T) {
	var sb strings.Builder
	cmp, err := TableIII(context.Background(), &sb, Config{Cases: []string{"dense1"}})
	if err != nil {
		t.Fatal(err)
	}
	aarf, ours := cmp.Rows[0][0], cmp.Rows[0][1]
	if ours.Routability != 100 {
		t.Errorf("ours routability = %v", ours.Routability)
	}
	if aarf.Routability > ours.Routability {
		t.Errorf("AARF* routability %v beats ours %v", aarf.Routability, ours.Routability)
	}
	// The rebuild emulation makes AARF* materially slower.
	if aarf.Runtime < 2*ours.Runtime {
		t.Errorf("AARF* runtime %v not slower than ours %v", aarf.Runtime, ours.Runtime)
	}
}

func TestFig14Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("dense5 route in -short mode")
	}
	var sb strings.Builder
	out, err := Fig14(context.Background(), &sb, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics.Routability < 0.99 {
		t.Errorf("dense5 routability = %v", out.Metrics.Routability)
	}
	if !strings.Contains(sb.String(), "<svg") || strings.Count(sb.String(), "<polyline") < 100 {
		t.Error("Fig. 14 SVG looks empty")
	}
}

func TestAblationAPAdjustShape(t *testing.T) {
	res, err := AblationAPAdjust(context.Background(), "dense1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Full.Wirelength >= res.Reduced.Wirelength {
		t.Errorf("AP adjustment should shorten wirelength: full %v, reduced %v",
			res.Full.Wirelength, res.Reduced.Wirelength)
	}
}

func TestPrintAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep in -short mode")
	}
	var sb strings.Builder
	if err := PrintAblations(context.Background(), &sb, "dense1"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"corner-capacity", "RUDY", "AP-adjustment", "diagonal"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

func TestPortfolioTableSmall(t *testing.T) {
	var sb strings.Builder
	runs, err := PortfolioTable(context.Background(), &sb,
		Config{Cases: []string{"dense1"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("runs = %d", len(runs))
	}
	r := runs[0]
	if len(r.Rows) != 3 || r.Winner == "" {
		t.Fatalf("race summary wrong: %+v", r)
	}
	var rudy, winner *portfolio.Outcome
	for i := range r.Rows {
		o := &r.Rows[i]
		if o.Strategy == "rudy" {
			rudy = o
		}
		if o.Strategy == r.Winner {
			winner = o
		}
	}
	if rudy == nil || winner == nil {
		t.Fatalf("rudy or winner missing from rows: %+v", r.Rows)
	}
	// dense1's netlen order routes shorter than RUDY — the evaluation's
	// standing example of the portfolio paying for itself.
	if !winnerBeatsRudy(r, rudy) {
		t.Errorf("winner %s does not beat rudy: winner %+v rudy %+v", r.Winner, winner, rudy)
	}
	out := sb.String()
	for _, want := range []string{"Portfolio ordering race", r.Winner + "*", "beat rudy-only on 1/1 cases"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
