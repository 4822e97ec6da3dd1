package bench

import (
	"context"
	"fmt"
	"io"

	"rdlroute/internal/design"
)

// TableI prints the benchmark statistics table (Table I of the paper).
func TableI(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintln(w, "Table I: benchmark statistics")
	fmt.Fprintf(w, "%-8s %7s %6s %6s %6s %6s\n", "Circuit", "#Chips", "|IO|", "|B|", "|N|", "|Lw|")
	for _, name := range cfg.Cases {
		d, err := design.GenerateDense(name)
		if err != nil {
			return err
		}
		s := d.Stats()
		fmt.Fprintf(w, "%-8s %7d %6d %6d %6d %6d\n",
			s.Name, s.Chips, s.IOPads, s.BumpPads, s.Nets, s.WireLayers)
	}
	return nil
}

// Comparison holds both routers' runs for one table.
type Comparison struct {
	Baseline string
	Rows     [][2]*CaseRun // [baseline, ours] per case
}

// runTable executes ours plus one baseline over all cases.
func runTable(ctx context.Context, cfg Config, baseline Router) (*Comparison, error) {
	cfg = cfg.withDefaults()
	cmp := &Comparison{Baseline: baseline.Name}
	for _, name := range cfg.Cases {
		b, err := Run(ctx, name, baseline, cfg.TimeBudget)
		if err != nil {
			return nil, fmt.Errorf("bench: %s on %s: %w", baseline.Name, name, err)
		}
		o, err := Run(ctx, name, Ours, cfg.TimeBudget)
		if err != nil {
			return nil, fmt.Errorf("bench: ours on %s: %w", name, err)
		}
		cmp.Rows = append(cmp.Rows, [2]*CaseRun{b, o})
	}
	return cmp, nil
}

// TableII runs and prints the comparison against the traditional RDL router
// (Table II of the paper).
func TableII(ctx context.Context, w io.Writer, cfg Config) (*Comparison, error) {
	cmp, err := runTable(ctx, cfg, Cai)
	if err != nil {
		return nil, err
	}
	printComparison(w, "Table II: comparison with a traditional RDL router", cmp)
	return cmp, nil
}

// TableIII runs and prints the comparison against the AARF* any-angle
// baseline (Table III of the paper).
func TableIII(ctx context.Context, w io.Writer, cfg Config) (*Comparison, error) {
	cmp, err := runTable(ctx, cfg, AARF)
	if err != nil {
		return nil, err
	}
	printComparison(w, "Table III: comparison with the re-implemented any-angle router", cmp)
	return cmp, nil
}

// printComparison renders a Comparison in the paper's row format. The
// Comp. row holds, under each baseline column, the geometric mean of the
// baseline ÷ ours ratios of that column, and 1 under ours.
func printComparison(w io.Writer, title string, cmp *Comparison) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-8s | %-9s %-9s | %-12s %-12s | %-8s %-8s | %-10s %-10s\n",
		"Case",
		"R%("+cmp.Baseline+")", "R%(Ours)",
		"WL("+cmp.Baseline+")", "WL(Ours)",
		"V("+cmp.Baseline+")", "V(Ours)",
		"T("+cmp.Baseline+")", "T(Ours)")
	var wlRatios, viaRatios, rtRatios, routRatios []float64
	for _, row := range cmp.Rows {
		b, o := row[0], row[1]
		fmt.Fprintf(w, "%-8s | %9.2f %9.2f | %12s %12s | %8d %8d | %10.3f %10.3f\n",
			b.Case, b.Routability, o.Routability,
			wlString(b), wlString(o),
			b.Vias, o.Vias,
			b.Runtime.Seconds(), o.Runtime.Seconds())
		if !b.WirelengthLB && !o.WirelengthLB && o.Wirelength > 0 {
			wlRatios = append(wlRatios, b.Wirelength/o.Wirelength)
		}
		if o.Vias > 0 {
			viaRatios = append(viaRatios, float64(b.Vias)/float64(o.Vias))
		}
		if o.Runtime > 0 {
			rtRatios = append(rtRatios, b.Runtime.Seconds()/o.Runtime.Seconds())
		}
		if o.Routability > 0 {
			routRatios = append(routRatios, b.Routability/o.Routability)
		}
	}
	fmt.Fprintf(w, "%-8s | %9.5f %9d | %12.3f %12d | %8.2f %8d | %10.2f %10d\n",
		"Comp.", geomean(routRatios), 1, geomean(wlRatios), 1,
		geomean(viaRatios), 1, geomean(rtRatios), 1)
	for _, row := range cmp.Rows {
		printStageBreakdown(w, row[0])
		printStageBreakdown(w, row[1])
	}
	fmt.Fprintln(w)
}

// topStages are the pipeline's top-level span names, in pipeline order.
var topStages = []string{"viaplan", "rgraph", "global", "detail", "drc"}

// printStageBreakdown prints one compact per-stage runtime line for a run
// that carries a Collector breakdown (sub-spans are skipped).
func printStageBreakdown(w io.Writer, r *CaseRun) {
	if len(r.StageSeconds) == 0 {
		return
	}
	fmt.Fprintf(w, "  stages(%s, %s):", r.Router, r.Case)
	for _, name := range topStages {
		if sec, ok := r.StageSeconds[name]; ok {
			fmt.Fprintf(w, " %s=%.3fs", name, sec)
		}
	}
	fmt.Fprintln(w)
}
