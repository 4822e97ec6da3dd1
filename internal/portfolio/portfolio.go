// Package portfolio is the net-ordering subsystem of the router: pluggable
// ordering strategies over a per-net feature model, plus a deterministic
// racer that runs several strategies as independent full route attempts and
// keeps the canonically best result.
//
// Net ordering is the highest-leverage free variable of rip-up-and-reroute
// (the paper fixes one policy — RUDY initial order plus failure-count
// reordering — but *ML Optimal Ordering in Global Routing*, arxiv
// 2412.21035, shows alternatives routinely win on individual designs).
// Because the route/commit/ripUp cycle is allocation-free and the whole
// pipeline is byte-identical at any Parallelism, a full route attempt is
// cheap enough to be a search primitive: the racer fans K attempts over the
// shared worker budget and selects the winner by a canonical objective, so
// the chosen result does not depend on worker count or completion order.
//
// Every Strategy must be pure and deterministic: Order is a function of the
// Model alone. The package is in rdllint's deterministic scope, which
// enforces this at the source level.
package portfolio

import (
	"context"
	"fmt"
	"sort"
)

// Model carries the per-net features an ordering strategy may consult. The
// global router fills it from the RUDY seed pass: every net is routed alone
// on the empty graph and a wire-density estimate is accumulated on the
// tiles its standalone guide crosses.
type Model struct {
	// Nets is the net count; every strategy returns a permutation of
	// [0, Nets).
	Nets int
	// Congested[i] counts the over-threshold RUDY tiles net i's standalone
	// seed path crosses (the paper's initial-ordering signal). Nil or short
	// slices read as zero.
	Congested []int
	// PinDist[i] is net i's half-perimeter pin-to-pin length in µm.
	PinDist []float64
	// Conflicts lists net pairs whose seed paths share congested tiles,
	// sorted by (A, B) with A < B. It is the pairwise interaction signal
	// the congestion strategy uses.
	Conflicts []Conflict
}

// Conflict is one pair of nets competing for congested tiles.
type Conflict struct {
	// A and B are net indices, A < B.
	A, B int
	// Shared counts the distinct congested tiles both seed paths cross.
	Shared int
}

// congestedOf returns the congested-tile count of net i, tolerating short
// or nil slices.
func (m *Model) congestedOf(i int) int {
	if i < len(m.Congested) {
		return m.Congested[i]
	}
	return 0
}

// pinDistOf returns the pin-to-pin distance of net i, tolerating short or
// nil slices.
func (m *Model) pinDistOf(i int) float64 {
	if i < len(m.PinDist) {
		return m.PinDist[i]
	}
	return 0
}

// Strategy is one net-ordering policy. Order must return a permutation of
// [0, m.Nets) and must be pure: equal models give equal orders, for any
// call count or interleaving. ctx is advisory: a strategy doing real work
// should stop early when ctx is cancelled and return its best order so far,
// matching the pipeline's report-best-so-far semantics.
type Strategy interface {
	Name() string
	Order(ctx context.Context, m *Model) []int
}

// Names lists the built-in strategy names in canonical order.
func Names() []string { return []string{"rudy", "netlen", "congestion"} }

// Known reports whether name is a built-in strategy.
func Known(name string) bool {
	for _, n := range Names() {
		if n == name {
			return true
		}
	}
	return false
}

// New resolves a strategy by name. The empty name is an alias for "rudy"
// (the paper's policy). prof parameterizes the strategies for which
// ReadsProfile reports true and is ignored by the others.
func New(name string, prof Profile) (Strategy, error) {
	switch name {
	case "", "rudy":
		return RUDY{}, nil
	case "netlen":
		return NetLen{}, nil
	case "congestion":
		return Congestion{Profile: prof}, nil
	}
	return nil, fmt.Errorf("portfolio: unknown ordering strategy %q (have %v)", name, Names())
}

// ReadsProfile reports whether New passes its Profile to the named
// strategy. A strategy added to New that reads the profile must be added
// here too, or options that differ only in their profile share a cache key.
func ReadsProfile(name string) bool { return name == "congestion" }

// NormalizeNames canonicalizes a portfolio list: names are validated,
// deduped and sorted into registration order (the Names order), so any
// submission order of the same strategy set yields the same list — the
// first step of the racer's submission-order independence. Empty or unknown
// names are errors: a portfolio entry, unlike Options.Ordering, has no
// legacy-alias meaning.
func NormalizeNames(names []string) ([]string, error) {
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if !Known(name) {
			return nil, fmt.Errorf("portfolio: unknown strategy %q in portfolio (have %v)", name, Names())
		}
		seen[name] = true
	}
	var out []string
	for _, name := range Names() {
		if seen[name] {
			out = append(out, name)
		}
	}
	return out, nil
}

// ValidOrder reports whether order is a permutation of [0, n).
func ValidOrder(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, ni := range order {
		if ni < 0 || ni >= n || seen[ni] {
			return false
		}
		seen[ni] = true
	}
	return true
}

// identity returns the identity permutation of size n.
func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// RUDY is the paper's initial ordering (§III-A2), extracted verbatim from
// the global router: nets crossing more over-threshold RUDY tiles first,
// equal counts broken by shorter pin-to-pin distance, remaining ties by net
// ID. This is the legacy default — an empty Options.Ordering routes through
// this exact comparator.
type RUDY struct{}

// Name implements Strategy.
func (RUDY) Name() string { return "rudy" }

// Order implements Strategy.
func (RUDY) Order(_ context.Context, m *Model) []int {
	order := identity(m.Nets)
	sort.SliceStable(order, func(a, b int) bool {
		na, nb := order[a], order[b]
		if ca, cb := m.congestedOf(na), m.congestedOf(nb); ca != cb {
			return ca > cb
		}
		if da, db := m.pinDistOf(na), m.pinDistOf(nb); da != db {
			return da < db
		}
		return na < nb
	})
	return order
}

// NetLen orders by half-perimeter net length, shortest first: short nets
// have the fewest detour options, so routing them before long flexible nets
// tends to preserve their direct corridors. Ties break by net ID.
type NetLen struct{}

// Name implements Strategy.
func (NetLen) Name() string { return "netlen" }

// Order implements Strategy.
func (NetLen) Order(_ context.Context, m *Model) []int {
	order := identity(m.Nets)
	sort.SliceStable(order, func(a, b int) bool {
		na, nb := order[a], order[b]
		if da, db := m.pinDistOf(na), m.pinDistOf(nb); da != db {
			return da < db
		}
		return na < nb
	})
	return order
}

// Congestion scores every net with a weighted sum of the congestion
// signals of the RUDY seed pass — congested-tile count, conflict degree,
// net length — and routes higher scores first.
// The weights come from a Profile, loadable from a small JSON file, so a
// scorer tuned offline against observed obs counters plugs in without a
// code change.
type Congestion struct {
	Profile Profile
}

// Name implements Strategy.
func (Congestion) Name() string { return "congestion" }

// Order implements Strategy.
func (s Congestion) Order(_ context.Context, m *Model) []int {
	p := s.Profile.withDefaults()
	score := make([]float64, m.Nets)
	for i := 0; i < m.Nets; i++ {
		score[i] = p.CongestedWeight*float64(m.congestedOf(i)) +
			p.LengthWeight*m.pinDistOf(i)
	}
	for _, c := range m.Conflicts {
		w := p.ConflictWeight * float64(c.Shared)
		if c.A >= 0 && c.A < m.Nets {
			score[c.A] += w
		}
		if c.B >= 0 && c.B < m.Nets {
			score[c.B] += w
		}
	}
	order := identity(m.Nets)
	sort.SliceStable(order, func(a, b int) bool {
		na, nb := order[a], order[b]
		if score[na] != score[nb] {
			return score[na] > score[nb]
		}
		return na < nb
	})
	return order
}
