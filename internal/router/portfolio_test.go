package router

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/portfolio"
)

// fingerprintPortfolio extends the pipeline fingerprint with the race
// summary: the winner and every attempt's canonical score must be as
// byte-stable as the routed geometry itself.
func fingerprintPortfolio(out *Output) string {
	var b strings.Builder
	b.WriteString(fingerprintOutput(out))
	fmt.Fprintf(&b, "winner:%s\n", out.Metrics.PortfolioWinner)
	for _, o := range out.Portfolio {
		fmt.Fprintf(&b, "att:%s ok:%v r:%v wl:%v v:%d\n",
			o.Strategy, o.OK, o.Routability, o.Wirelength, o.Vias)
	}
	return b.String()
}

// portfolioOfSize returns the canonical test portfolio of K strategies.
func portfolioOfSize(k int) []string {
	all := []string{"rudy", "netlen", "congestion"}
	return all[:k]
}

func routePortfolioCase(t *testing.T, d *design.Design, names []string, par int) *Output {
	t.Helper()
	out, err := Route(context.Background(), d, Options{Portfolio: names, Parallelism: par})
	if err != nil {
		t.Fatalf("portfolio %v parallelism %d: %v", names, par, err)
	}
	return out
}

// TestPortfolioByteIdenticalAcrossParallelism is the subsystem's
// determinism gate: for every dense benchmark plus a randomized design, and
// for several portfolio sizes, the full pipeline output — geometry, guides,
// violations, metrics, winner and per-attempt scores — is byte-identical
// across Parallelism 1/2/4/8. The heavier designs run a reduced matrix so
// the suite stays affordable on small hosts.
func TestPortfolioByteIdenticalAcrossParallelism(t *testing.T) {
	type matrix struct {
		sizes []int
		pars  []int
	}
	full := matrix{sizes: []int{1, 2, 3}, pars: []int{1, 2, 4, 8}}
	cases := []struct {
		name string
		m    matrix
	}{
		{"dense1", full},
		{"dense2", full},
		{"dense3", full},
		{"dense4", matrix{sizes: []int{3}, pars: []int{1, 8}}},
		// dense5 costs seconds per attempt; two strategies across two pool
		// sizes still covers the worker-count axis there.
		{"dense5", matrix{sizes: []int{2}, pars: []int{1, 8}}},
	}
	for _, c := range cases {
		if testing.Short() && c.name != "dense1" {
			continue
		}
		d, err := design.GenerateDense(c.name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c.name, func(t *testing.T) {
			comparePortfolioParallelism(t, d, c.m.sizes, c.m.pars)
		})
	}
	if !testing.Short() {
		d, err := design.GenerateRandom(design.RandomSpec{Seed: 7, Chips: 4, NetsPerChannel: 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Run("random", func(t *testing.T) {
			comparePortfolioParallelism(t, d, []int{1, 2, 3}, []int{1, 2, 4, 8})
		})
	}
}

func comparePortfolioParallelism(t *testing.T, d *design.Design, sizes, pars []int) {
	t.Helper()
	for _, k := range sizes {
		names := portfolioOfSize(k)
		ref := fingerprintPortfolio(routePortfolioCase(t, d, names, pars[0]))
		for _, par := range pars[1:] {
			got := fingerprintPortfolio(routePortfolioCase(t, d, names, par))
			if got != ref {
				t.Fatalf("portfolio size %d: output at parallelism %d differs from parallelism %d",
					k, par, pars[0])
			}
		}
	}
}

// TestPortfolioSubmissionOrderIndependent pins the other half of the
// determinism contract: the strategy list is canonicalized, so any
// submission order of the same set yields byte-identical output, including
// the attempt rows.
func TestPortfolioSubmissionOrderIndependent(t *testing.T) {
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	a := fingerprintPortfolio(routePortfolioCase(t, d, []string{"rudy", "netlen", "congestion"}, 4))
	b := fingerprintPortfolio(routePortfolioCase(t, d, []string{"congestion", "netlen", "rudy"}, 4))
	if a != b {
		t.Fatal("portfolio output depends on strategy submission order")
	}
	c := fingerprintPortfolio(routePortfolioCase(t, d, []string{"netlen", "congestion", "rudy", "netlen"}, 4))
	if a != c {
		t.Fatal("duplicate strategy names change portfolio output")
	}
}

// TestExplicitRudyMatchesLegacy: naming the paper's policy explicitly —
// as Ordering or as a one-strategy portfolio — routes byte-identically to
// the legacy empty-options path.
func TestExplicitRudyMatchesLegacy(t *testing.T) {
	d, err := design.GenerateDense("dense2")
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := Route(context.Background(), d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := fingerprintOutput(legacy)
	named, err := Route(context.Background(), d, Options{Ordering: "rudy"})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprintOutput(named) != ref {
		t.Fatal("Ordering=rudy differs from the legacy path")
	}
	solo := routePortfolioCase(t, d, []string{"rudy"}, 0)
	if fingerprintOutput(solo) != ref {
		t.Fatal("one-strategy rudy portfolio differs from the legacy path")
	}
	if solo.Metrics.PortfolioWinner != "rudy" || len(solo.Portfolio) != 1 {
		t.Fatalf("solo portfolio summary wrong: winner %q, %d attempts",
			solo.Metrics.PortfolioWinner, len(solo.Portfolio))
	}
}

// TestPortfolioOutputConsistent checks the race summary against the
// winner's own metrics and the canonical objective.
func TestPortfolioOutputConsistent(t *testing.T) {
	d, err := design.GenerateDense("dense3")
	if err != nil {
		t.Fatal(err)
	}
	out := routePortfolioCase(t, d, []string{"congestion", "netlen", "rudy"}, 0)
	if len(out.Portfolio) != 3 {
		t.Fatalf("%d attempts, want 3", len(out.Portfolio))
	}
	for i, o := range out.Portfolio {
		if want := portfolio.Names()[i]; o.Strategy != want {
			t.Errorf("attempt %d is %q, want canonical order %q", i, o.Strategy, want)
		}
		if !o.OK {
			t.Errorf("attempt %s failed: %v", o.Strategy, o.Err)
		}
	}
	var winner *portfolio.Outcome
	for i := range out.Portfolio {
		o := &out.Portfolio[i]
		if o.Strategy == out.Metrics.PortfolioWinner {
			winner = o
		}
	}
	if winner == nil {
		t.Fatalf("winner %q not among attempts", out.Metrics.PortfolioWinner)
	}
	if winner.Routability != out.Metrics.Routability ||
		winner.Wirelength != out.Metrics.Wirelength ||
		winner.Vias != out.Metrics.Vias {
		t.Errorf("output metrics %v/%v/%d do not match winner's score %+v",
			out.Metrics.Routability, out.Metrics.Wirelength, out.Metrics.Vias, winner)
	}
	for i := range out.Portfolio {
		o := out.Portfolio[i]
		if o.Strategy != winner.Strategy && portfolio.Better(o, *winner) {
			t.Errorf("attempt %s beats the declared winner %s", o.Strategy, winner.Strategy)
		}
	}
}

func TestOrderingValidation(t *testing.T) {
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Route(context.Background(), d, Options{Ordering: "zigzag"}); err == nil {
		t.Error("unknown ordering accepted")
	}
	if _, err := Route(context.Background(), d, Options{Portfolio: []string{"rudy", "zigzag"}}); err == nil {
		t.Error("unknown portfolio strategy accepted")
	}
	if _, err := Route(context.Background(), d, Options{Ordering: "netlen", Portfolio: []string{"rudy"}}); err == nil {
		t.Error("ordering+portfolio accepted")
	}
}

// TestSpecPortfolioCanonicalization pins the cache identity of the
// strategy fields: submission order canonicalizes away, ordering "rudy" is
// the default ordering, the ordering profile counts only where the
// congestion strategy reads it, and Validate rejects what Route would
// reject, checking ordering/portfolio exclusivity before "rudy" is
// normalized away.
func TestSpecPortfolioCanonicalization(t *testing.T) {
	a := encode(t, Options{Portfolio: []string{"netlen", "rudy", "netlen"}})
	b := encode(t, Options{Portfolio: []string{"rudy", "netlen"}})
	if a != b {
		t.Errorf("equivalent portfolios encode differently:\n%s\n%s", a, b)
	}
	if !strings.Contains(b, `"portfolio":["rudy","netlen"]`) {
		t.Errorf("portfolio not encoded in registration order: %s", b)
	}
	if encode(t, Options{Ordering: "rudy"}) != encode(t, Options{}) {
		t.Error(`ordering "rudy" and no ordering encode differently`)
	}

	prof := &portfolio.Profile{ConflictWeight: 3}
	c := encode(t, Options{Ordering: "congestion", OrderingProfile: prof})
	if c == encode(t, Options{Ordering: "congestion"}) {
		t.Error("ordering profile not part of the cache identity")
	}
	if encode(t, Options{Portfolio: []string{"congestion"}, OrderingProfile: prof}) ==
		encode(t, Options{Portfolio: []string{"congestion"}}) {
		t.Error("ordering profile of a congestion portfolio not part of the cache identity")
	}
	if encode(t, Options{Ordering: "netlen", OrderingProfile: prof}) != encode(t, Options{Ordering: "netlen"}) {
		t.Error("a profile the netlen ordering never reads splits the cache identity")
	}
	if encode(t, Options{Portfolio: []string{"rudy", "netlen"}, OrderingProfile: prof}) != b {
		t.Error("a profile no portfolio strategy reads splits the cache identity")
	}

	for _, bad := range []Options{
		{Ordering: "zigzag"},
		{Portfolio: []string{"zigzag"}},
		{Ordering: "rudy", Portfolio: []string{"netlen"}},
	} {
		bad := bad
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
}
