package global

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/viaplan"
)

// fingerprintGlobal renders a global-routing result — every guide's node
// and link path, the failure list, and the round/rip-up/expansion ledger —
// into one string, so two results compare byte-for-byte.
func fingerprintGlobal(res *Result) string {
	var b strings.Builder
	for net, g := range res.Guides {
		if g == nil {
			fmt.Fprintf(&b, "%d:nil\n", net)
			continue
		}
		fmt.Fprintf(&b, "%d:%v|%v\n", net, g.Nodes, g.Links)
	}
	fmt.Fprintf(&b, "failed:%v rounds:%d ripups:%d kept:%d diag:%d exp:%d\n",
		res.FailedNets, res.OrderRounds, res.RipUps, res.KeptGuides,
		res.DiagonalReductions, res.Expansions)
	return b.String()
}

// compareGlobalParallelism routes the design at Parallelism 1, 2, 4 and 8
// and demands byte-identical results: the ordering-seed pool fans out over
// the workers, and the order it feeds the round loop must not depend on how
// many there are — down to the failure bookkeeping and expansion counters.
func compareGlobalParallelism(t *testing.T, d *design.Design) {
	t.Helper()
	plan, err := viaplan.Build(d, viaplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := rgraph.Build(d, plan, rgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}

	serialRouter := New(g, Options{Parallelism: 1})
	serial, err := serialRouter.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref := fingerprintGlobal(serial)

	for _, workers := range []int{2, 4, 8} {
		r := New(g, Options{Parallelism: workers})
		res, err := r.Run(context.Background())
		if err != nil {
			t.Fatalf("parallelism=%d: %v", workers, err)
		}
		if got := fingerprintGlobal(res); got != ref {
			t.Fatalf("parallelism=%d: result not byte-identical to serial\nserial:\n%s\nparallel:\n%s",
				workers, ref, got)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("parallelism=%d: %v", workers, err)
		}
	}
}

func TestGlobalParallelismMatchesSerialDense(t *testing.T) {
	for _, name := range design.DenseNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			d, err := design.GenerateDense(name)
			if err != nil {
				t.Fatal(err)
			}
			compareGlobalParallelism(t, d)
		})
	}
}

func TestGlobalParallelismMatchesSerialRandom(t *testing.T) {
	for _, spec := range []design.RandomSpec{
		{Seed: 1},
		{Seed: 7, Chips: 4, NetsPerChannel: 20},
		{Seed: 42, Chips: 5, NetsPerChannel: 16, WireLayers: 3},
	} {
		spec := spec
		t.Run(fmt.Sprintf("seed%d", spec.Seed), func(t *testing.T) {
			d, err := design.GenerateRandom(spec)
			if err != nil {
				t.Fatal(err)
			}
			compareGlobalParallelism(t, d)
		})
	}
}

// TestGlobalParallelismMergedDense runs the congested merged design that
// drives the incremental rip-up tests: rounds with failures, blocked-set
// folding and incremental rip-up must all stay byte-identical across pool
// sizes.
func TestGlobalParallelismMergedDense(t *testing.T) {
	d := mergeSideBySide(t, "dense2", "dense1", 400)
	plan, err := viaplan.Build(d, viaplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := rgraph.Build(d, plan, rgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	serialRouter := New(g, Options{Parallelism: 1, EdgeUsePerNet: 2})
	serial, err := serialRouter.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref := fingerprintGlobal(serial)
	for _, workers := range []int{2, 4, 8} {
		r := New(g, Options{Parallelism: workers, EdgeUsePerNet: 2})
		res, err := r.Run(context.Background())
		if err != nil {
			t.Fatalf("parallelism=%d: %v", workers, err)
		}
		if got := fingerprintGlobal(res); got != ref {
			t.Fatalf("parallelism=%d: result not byte-identical to serial", workers)
		}
	}
}
