// Benchmarks regenerating every table and figure of the paper's evaluation
// section. One benchmark family per table/figure:
//
//	BenchmarkTable1Generate/*   — Table I  (benchmark generation)
//	BenchmarkTable2/*           — Table II (ours vs traditional router)
//	BenchmarkTable3/*           — Table III (ours vs AARF*)
//	BenchmarkFig2               — Fig. 2   (channel utilization series)
//	BenchmarkFig14              — Fig. 14  (dense5 layer-1 rendering)
//	BenchmarkAblation*          — design-choice ablations from DESIGN.md
//
// Each reported iteration routes the named design end to end; ns/op is the
// full pipeline runtime, allocs/op its allocation footprint.
package rdlroute_test

import (
	"context"
	"io"
	"testing"
	"time"

	"rdlroute/internal/aarf"
	"rdlroute/internal/bench"
	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/geom"
	"rdlroute/internal/global"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/router"
)

// benchBudget caps each routing run inside benchmarks; heavyweight AARF*
// runs hit it exactly the way the paper's 1-hour cap is hit.
const benchBudget = 30 * time.Second

// smallCases keeps the per-iteration cost of the heavier benchmark families
// manageable; the full five-case sweep is cmd/evaltables' job.
var smallCases = []string{"dense1", "dense2", "dense3"}

var allCases = design.DenseNames()

func BenchmarkTable1Generate(b *testing.B) {
	for _, name := range allCases {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := design.GenerateDense(name)
				if err != nil {
					b.Fatal(err)
				}
				if err := d.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2(b *testing.B) {
	for _, name := range allCases {
		b.Run(name+"/ours", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.Run(context.Background(), name, bench.Ours, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Routability, "routability%")
				b.ReportMetric(r.Wirelength, "wirelength_um")
			}
		})
		b.Run(name+"/cai", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.Run(context.Background(), name, bench.Cai, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Routability, "routability%")
				b.ReportMetric(r.Wirelength, "wirelength_um")
			}
		})
	}
}

func BenchmarkTable3(b *testing.B) {
	for _, name := range allCases {
		b.Run(name+"/ours", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.Run(context.Background(), name, bench.Ours, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Routability, "routability%")
			}
		})
		b.Run(name+"/aarf", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.Run(context.Background(), name, bench.AARF, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Routability, "routability%")
				b.ReportMetric(r.Wirelength, "wirelength_um")
			}
		})
	}
}

func BenchmarkFig2(b *testing.B) {
	rules := design.DefaultRules()
	for i := 0; i < b.N; i++ {
		rows := bench.Fig2(420, rules)
		if len(rows) == 0 {
			b.Fatal("empty Fig. 2 series")
		}
	}
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := bench.Fig14(context.Background(), io.Discard, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(out.Metrics.Routability*100, "routability%")
	}
}

// Ablation benches: full flow vs one mechanism disabled, per DESIGN.md.

func benchAblation(b *testing.B, opt router.Options) {
	b.Helper()
	for _, name := range smallCases {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := design.GenerateDense(name)
				if err != nil {
					b.Fatal(err)
				}
				out, err := router.Route(context.Background(), d, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.Metrics.Routability*100, "routability%")
				b.ReportMetric(out.Metrics.Wirelength, "wirelength_um")
				b.ReportMetric(float64(out.Metrics.DRCViolations), "drc")
			}
		})
	}
}

func BenchmarkAblationFullFlow(b *testing.B) {
	benchAblation(b, router.Options{TimeBudget: benchBudget})
}

func BenchmarkAblationCornerCapacity(b *testing.B) {
	benchAblation(b, router.Options{
		TimeBudget: benchBudget,
		Graph:      rgraph.Options{NaiveCornerCapacity: true},
	})
}

func BenchmarkAblationNetOrder(b *testing.B) {
	benchAblation(b, router.Options{
		TimeBudget: benchBudget,
		Global:     global.Options{DisableRUDYOrder: true},
	})
}

func BenchmarkAblationAPAdjust(b *testing.B) {
	benchAblation(b, router.Options{
		TimeBudget: benchBudget,
		Detail:     detail.Options{SkipAdjust: true},
	})
}

func BenchmarkAblationDiagonal(b *testing.B) {
	benchAblation(b, router.Options{
		TimeBudget: benchBudget,
		Global:     global.Options{DisableDiagonalRefinement: true},
	})
}

// Baseline micro-benchmarks used by the runtime columns.

func BenchmarkXarchOctilinearize(b *testing.B) {
	d, err := design.GenerateDense("dense1")
	if err != nil {
		b.Fatal(err)
	}
	out, err := router.Route(context.Background(), d, router.Options{TimeBudget: benchBudget})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rt := range out.DetailResult.Routes {
			if rt == nil {
				continue
			}
			for _, s := range rt.Segs {
				geom.Octilinearize(s.Pl)
			}
		}
	}
}

func BenchmarkAARFNoRebuild(b *testing.B) {
	// Isolates AARF*'s algorithmic behaviour from its rebuild cost model.
	d, err := design.GenerateDense("dense1")
	if err != nil {
		b.Fatal(err)
	}
	opt := aarf.Options(router.Options{})
	opt.Global.AfterEachNet = nil
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := router.Route(context.Background(), d, opt); err != nil {
			b.Fatal(err)
		}
	}
}
