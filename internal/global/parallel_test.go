package global

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
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
	fmt.Fprintf(&b, "failed:%v rounds:%d ripups:%d diag:%d exp:%d\n",
		res.FailedNets, res.OrderRounds, res.RipUps,
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

// TestGlobalParallelismMergedDense runs a congested merged design: dense2
// beside dense1 at half the edge capacity. Rounds with failed searches and
// full rip-ups must stay byte-identical across pool sizes.
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

// mergeSideBySide places design b to the right of design a with a free-space
// gap between them, renumbering b's chips, pads and nets. The two halves
// share no routing resources, so they form independent congestion clusters
// inside one package.
func mergeSideBySide(t *testing.T, aName, bName string, gap float64) *design.Design {
	t.Helper()
	a, err := design.GenerateDense(aName)
	if err != nil {
		t.Fatal(err)
	}
	b, err := design.GenerateDense(bName)
	if err != nil {
		t.Fatal(err)
	}
	if a.WireLayers != b.WireLayers {
		t.Fatalf("wire layer mismatch: %d vs %d", a.WireLayers, b.WireLayers)
	}
	if len(a.Obstacles) != 0 || len(b.Obstacles) != 0 {
		t.Fatal("merge helper does not translate obstacles")
	}
	dx := a.Outline.Max.X - b.Outline.Min.X + gap
	m := &design.Design{
		Name:       aName + "+" + bName,
		Rules:      a.Rules,
		WireLayers: a.WireLayers,
		Outline: geom.R(a.Outline.Min.X, math.Min(a.Outline.Min.Y, b.Outline.Min.Y),
			b.Outline.Max.X+dx, math.Max(a.Outline.Max.Y, b.Outline.Max.Y)),
	}
	m.Chips = append(m.Chips, a.Chips...)
	m.IOPads = append(m.IOPads, a.IOPads...)
	m.BumpPads = append(m.BumpPads, a.BumpPads...)
	m.Nets = append(m.Nets, a.Nets...)
	maxGroup := 0
	for _, n := range a.Nets {
		if n.Group > maxGroup {
			maxGroup = n.Group
		}
	}
	for _, c := range b.Chips {
		c.Name = "b_" + c.Name
		c.Outline = geom.R(c.Outline.Min.X+dx, c.Outline.Min.Y, c.Outline.Max.X+dx, c.Outline.Max.Y)
		m.Chips = append(m.Chips, c)
	}
	for _, p := range b.IOPads {
		p.ID += len(a.IOPads)
		if p.Net >= 0 {
			p.Net += len(a.Nets)
		}
		if p.Chip >= 0 {
			p.Chip += len(a.Chips)
		}
		p.Pos.X += dx
		m.IOPads = append(m.IOPads, p)
	}
	for _, p := range b.BumpPads {
		p.ID += len(a.BumpPads)
		if p.Net >= 0 {
			p.Net += len(a.Nets)
		}
		p.Pos.X += dx
		m.BumpPads = append(m.BumpPads, p)
	}
	for _, n := range b.Nets {
		n.ID += len(a.Nets)
		n.Name = "b_" + n.Name
		n.Pins[0] += len(a.IOPads)
		n.Pins[1] += len(a.IOPads)
		if n.Group != 0 {
			n.Group += maxGroup
		}
		m.Nets = append(m.Nets, n)
	}
	return m
}
