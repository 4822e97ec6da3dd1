package router

import (
	"encoding/json"
	"fmt"
	"time"

	"rdlroute/internal/detail"
	"rdlroute/internal/global"
	"rdlroute/internal/portfolio"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/viaplan"
)

// OptionsSpec is the declarative view of Options: every field that changes
// what the router computes, and nothing that merely observes a run
// (recorders, callbacks). It serves two roles for the serving layer:
//
//   - Wire format: the "options" object of a routing request decodes into an
//     OptionsSpec, which Options() expands into the real per-stage Options.
//   - Cache identity: Canonical() is a byte-stable JSON encoding, so equal
//     specs hash equally and the result cache can treat the pair
//     (design, spec) as content-addressed.
//
// The zero spec means "all defaults" and expands to the zero Options.
type OptionsSpec struct {
	Via    ViaSpec    `json:"via"`
	Graph  GraphSpec  `json:"graph"`
	Global GlobalSpec `json:"global"`
	Detail DetailSpec `json:"detail"`
	// TimeBudgetMS is Options.TimeBudget in milliseconds. It is part of the
	// cache identity: a run under a tighter budget may legitimately return a
	// worse partial result than the same design under a looser one.
	TimeBudgetMS int64 `json:"time_budget_ms"`
	// Verify selects the verification gate ("", "warn" or "strict"; the
	// alias "off" normalizes to "" — see Validate). It is part of the cache
	// identity: a gated Output carries the verifier's report, an ungated
	// one does not.
	Verify VerifyMode `json:"verify"`
	// Parallelism is Options.Parallelism, the pipeline's one concurrency
	// knob (zero = GOMAXPROCS capped at 8, 1 = serial). Results are
	// byte-identical for every value, but the field stays in the wire view
	// so jobs can pin their worker budget; omitempty keeps the canonical
	// bytes — and therefore every existing cache key — unchanged when the
	// knob is unset.
	Parallelism int `json:"parallelism,omitempty"`
	// Ordering is Options.Ordering, the global stage's net-ordering
	// strategy name. Empty is the legacy RUDY path; omitempty keeps legacy
	// cache keys byte-identical. Part of the cache identity: different
	// strategies route different results.
	Ordering string `json:"ordering,omitempty"`
	// Portfolio is Options.Portfolio. Validate canonicalizes it (dedupe,
	// registration-order sort), so any submission order of the same
	// strategy set yields the same cache key; empty — the single-attempt
	// path — is omitted, keeping legacy keys unchanged.
	Portfolio []string `json:"portfolio,omitempty"`
	// OrderingProfile is Options.OrderingProfile, the congestion scorer's
	// weights. Nil (the built-in defaults) is omitted.
	OrderingProfile *portfolio.Profile `json:"ordering_profile,omitempty"`
}

// Validate checks the spec's enumerated fields and normalizes aliases (the
// verify mode "off" becomes the canonical ""), so equal semantics always
// canonicalize to equal bytes. The serving layer calls it on every decoded
// request before using the spec as a cache key.
func (s *OptionsSpec) Validate() error {
	mode, err := ParseVerifyMode(string(s.Verify))
	if err != nil {
		return err
	}
	s.Verify = mode
	if s.Parallelism < 0 {
		return fmt.Errorf("router: parallelism must be >= 0, got %d", s.Parallelism)
	}
	if s.Ordering != "" && !portfolio.Known(s.Ordering) {
		return fmt.Errorf("router: unknown ordering strategy %q (have %v)", s.Ordering, portfolio.Names())
	}
	if len(s.Portfolio) > 0 {
		if s.Ordering != "" {
			return fmt.Errorf("router: ordering %q and portfolio %v are mutually exclusive", s.Ordering, s.Portfolio)
		}
		names, err := portfolio.NormalizeNames(s.Portfolio)
		if err != nil {
			return fmt.Errorf("router: %w", err)
		}
		s.Portfolio = names
	} else {
		s.Portfolio = nil // [] and absent canonicalize to the same bytes
	}
	if s.OrderingProfile != nil {
		if err := s.OrderingProfile.Validate(); err != nil {
			return fmt.Errorf("router: %w", err)
		}
	}
	return nil
}

// ViaSpec mirrors viaplan.Options (minus the recorder). ViaCost uses the
// same flat encoding as GraphSpec.ViaCost; omitempty keeps legacy cache
// keys byte-identical when it is unset.
type ViaSpec struct {
	ViaPitch     float64 `json:"via_pitch"`
	BoundaryStep float64 `json:"boundary_step"`
	JitterFrac   float64 `json:"jitter_frac"`
	Seed         int64   `json:"seed"`
	ViaCost      float64 `json:"via_cost,omitempty"`
}

// GraphSpec mirrors rgraph.Options (minus the recorder). ViaCost is the
// flat wire encoding of the rgraph.Options.ViaCost pointer (see
// rgraph.ViaCostValue): 0 selects the default cost, positive values are
// explicit, and negative values mean free vias — keeping the legacy
// "via_cost":0 cache-key bytes for specs that never set the knob.
type GraphSpec struct {
	ViaCost             float64 `json:"via_cost"`
	NaiveCornerCapacity bool    `json:"naive_corner_capacity"`
}

// GlobalSpec mirrors global.Options (minus the recorder and the
// AfterEachNet callback, which observes rather than configures).
type GlobalSpec struct {
	CongestionThreshold       float64 `json:"congestion_threshold"`
	MaxOrderRounds            int     `json:"max_order_rounds"`
	MaxExpansions             int     `json:"max_expansions"`
	DisableRUDYOrder          bool    `json:"disable_rudy_order"`
	DisableDiagonalRefinement bool    `json:"disable_diagonal_refinement"`
	EdgeUsePerNet             int     `json:"edge_use_per_net"`
}

// DetailSpec mirrors detail.Options (minus the recorder). SkipReassign is
// omitempty so specs predating the layer-reassignment pass keep their exact
// legacy cache-key bytes.
type DetailSpec struct {
	Candidates   int     `json:"candidates"`
	MinMovable   float64 `json:"min_movable"`
	MaxFitIters  int     `json:"max_fit_iters"`
	SkipAdjust   bool    `json:"skip_adjust"`
	SkipReassign bool    `json:"skip_reassign,omitempty"`
}

// Spec projects the deterministic configuration out of o. Recorders and
// callbacks are dropped; two Options differing only in those project to the
// same spec.
func (o Options) Spec() OptionsSpec {
	return OptionsSpec{
		Via: ViaSpec{
			ViaPitch:     o.Via.ViaPitch,
			BoundaryStep: o.Via.BoundaryStep,
			JitterFrac:   o.Via.JitterFrac,
			Seed:         o.Via.Seed,
			ViaCost:      o.Via.ViaCost,
		},
		Graph: GraphSpec{
			ViaCost:             rgraph.ViaCostValue(o.Graph.ViaCost),
			NaiveCornerCapacity: o.Graph.NaiveCornerCapacity,
		},
		Global: GlobalSpec{
			CongestionThreshold:       o.Global.CongestionThreshold,
			MaxOrderRounds:            o.Global.MaxOrderRounds,
			MaxExpansions:             o.Global.MaxExpansions,
			DisableRUDYOrder:          o.Global.DisableRUDYOrder,
			DisableDiagonalRefinement: o.Global.DisableDiagonalRefinement,
			EdgeUsePerNet:             o.Global.EdgeUsePerNet,
		},
		Detail: DetailSpec{
			Candidates:   o.Detail.Candidates,
			MinMovable:   o.Detail.MinMovable,
			MaxFitIters:  o.Detail.MaxFitIters,
			SkipAdjust:   o.Detail.SkipAdjust,
			SkipReassign: o.Detail.SkipReassign,
		},
		TimeBudgetMS:    o.TimeBudget.Milliseconds(),
		Verify:          o.Verify,
		Parallelism:     o.Parallelism,
		Ordering:        o.Ordering,
		Portfolio:       o.Portfolio,
		OrderingProfile: o.OrderingProfile,
	}
}

// Options expands the spec into runnable Options. Recorder fields are left
// nil; callers attach their own observers.
func (s OptionsSpec) Options() Options {
	return Options{
		Via: viaplan.Options{
			ViaPitch:     s.Via.ViaPitch,
			BoundaryStep: s.Via.BoundaryStep,
			JitterFrac:   s.Via.JitterFrac,
			Seed:         s.Via.Seed,
			ViaCost:      s.Via.ViaCost,
		},
		Graph: rgraph.Options{
			ViaCost:             rgraph.ViaCostPtr(s.Graph.ViaCost),
			NaiveCornerCapacity: s.Graph.NaiveCornerCapacity,
		},
		Global: global.Options{
			CongestionThreshold:       s.Global.CongestionThreshold,
			MaxOrderRounds:            s.Global.MaxOrderRounds,
			MaxExpansions:             s.Global.MaxExpansions,
			DisableRUDYOrder:          s.Global.DisableRUDYOrder,
			DisableDiagonalRefinement: s.Global.DisableDiagonalRefinement,
			EdgeUsePerNet:             s.Global.EdgeUsePerNet,
		},
		Detail: detail.Options{
			Candidates:   s.Detail.Candidates,
			MinMovable:   s.Detail.MinMovable,
			MaxFitIters:  s.Detail.MaxFitIters,
			SkipAdjust:   s.Detail.SkipAdjust,
			SkipReassign: s.Detail.SkipReassign,
		},
		TimeBudget:      time.Duration(s.TimeBudgetMS) * time.Millisecond,
		Verify:          s.Verify,
		Parallelism:     s.Parallelism,
		Ordering:        s.Ordering,
		Portfolio:       s.Portfolio,
		OrderingProfile: s.OrderingProfile,
	}
}

// Canonical returns the byte-stable JSON encoding of the spec: compact, with
// the field order fixed by the struct definitions above. Equal specs always
// produce equal bytes, which is the property cache keys need. It fails only
// on non-finite floats, which Validate-d inputs never contain.
func (s OptionsSpec) Canonical() ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("router: canonical options: %w", err)
	}
	return b, nil
}

// Fingerprint returns the canonical encoding of o's deterministic
// configuration, the options half of a result-cache key.
func (o Options) Fingerprint() ([]byte, error) {
	return o.Spec().Canonical()
}
