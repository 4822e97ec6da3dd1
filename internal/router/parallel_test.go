package router

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
)

// fingerprintOutput renders the pipeline result — detailed geometry, global
// guides, DRC findings and the headline metrics — into one string so runs
// compare byte-for-byte.
func fingerprintOutput(out *Output) string {
	var b strings.Builder
	for net, rt := range out.DetailResult.Routes {
		if rt == nil {
			fmt.Fprintf(&b, "%d:nil\n", net)
			continue
		}
		fmt.Fprintf(&b, "%d:%v\n", net, *rt)
	}
	for net, g := range out.GlobalResult.Guides {
		if g == nil {
			fmt.Fprintf(&b, "g%d:nil\n", net)
			continue
		}
		fmt.Fprintf(&b, "g%d:%v|%v\n", net, g.Nodes, g.Links)
	}
	fmt.Fprintf(&b, "viol:%v\n", out.Violations)
	fmt.Fprintf(&b, "routability:%v wl:%v vias:%d exp:%d\n",
		out.Metrics.Routability, out.Metrics.Wirelength, out.Metrics.Vias,
		out.GlobalResult.Expansions)
	return b.String()
}

// TestRoutePipelineParallelismIdentical pins the unified knob end to end:
// the whole pipeline — global ordering seeds, detailed routing, DRC and the
// verify gate — produces byte-identical output for every Parallelism value.
func TestRoutePipelineParallelismIdentical(t *testing.T) {
	d, err := design.GenerateDense("dense2")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Route(context.Background(), d, Options{Parallelism: 1, Verify: VerifyWarn})
	if err != nil {
		t.Fatal(err)
	}
	ref := fingerprintOutput(serial)
	for _, p := range []int{2, 4, 8} {
		out, err := Route(context.Background(), d, Options{Parallelism: p, Verify: VerifyWarn})
		if err != nil {
			t.Fatalf("parallelism=%d: %v", p, err)
		}
		if got := fingerprintOutput(out); got != ref {
			t.Fatalf("parallelism=%d: pipeline output not byte-identical to serial", p)
		}
		if len(out.VerifyReport.Problems) != len(serial.VerifyReport.Problems) {
			t.Fatalf("parallelism=%d: verify findings differ", p)
		}
	}
}

// TestParallelismPropagatesToStages checks the precedence contract: the
// unified knob reaches a stage only when that stage has no override of its
// own.
func TestParallelismPropagatesToStages(t *testing.T) {
	d, err := design.GenerateDense("dense3")
	if err != nil {
		t.Fatal(err)
	}
	// A stage override must win: Detail.Workers=1 with Parallelism=8 runs
	// detail serially, which the differential tests elsewhere prove is
	// byte-identical — here it only needs to not error.
	out, err := Route(context.Background(), d, Options{
		Parallelism: 8,
		Detail:      detail.Options{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics.Routability != 1 {
		t.Fatalf("routability = %v", out.Metrics.Routability)
	}
	// The global stage had no override of its own, so it saw the knob.
	if got := out.GlobalRouter.Opt.Parallelism; got != 8 {
		t.Errorf("global stage Parallelism = %d, want the pipeline's 8", got)
	}
}
