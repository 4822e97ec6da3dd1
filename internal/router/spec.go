package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"rdlroute/internal/portfolio"
)

// maxTimeBudgetMS is the largest time_budget_ms whose time.Duration does
// not overflow.
const maxTimeBudgetMS = math.MaxInt64 / int64(time.Millisecond)

// optionsFields is Options without its JSON methods, so optionsJSON can
// embed it without recursing into them.
type optionsFields Options

// optionsJSON is the JSON form of Options: every tagged field, plus the
// time budget in whole milliseconds.
type optionsJSON struct {
	optionsFields
	TimeBudgetMS int64 `json:"time_budget_ms"`
}

// MarshalJSON encodes o's tagged fields and its TimeBudget as
// time_budget_ms. Recorders, callbacks, Global.Order and the worker counts
// are not encoded, so options that differ only in those encode equally.
func (o Options) MarshalJSON() ([]byte, error) {
	return json.Marshal(optionsJSON{optionsFields(o), o.TimeBudget.Milliseconds()})
}

// UnmarshalJSON replaces o with the decoded options. It rejects unknown
// fields at any depth itself, because a decoder's DisallowUnknownFields does
// not reach a custom unmarshaler, and it rejects a time_budget_ms that is
// negative or overflows a time.Duration.
func (o *Options) UnmarshalJSON(b []byte) error {
	var w optionsJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	if w.TimeBudgetMS < 0 || w.TimeBudgetMS > maxTimeBudgetMS {
		return fmt.Errorf("router: time_budget_ms must be in [0, %d], got %d", maxTimeBudgetMS, w.TimeBudgetMS)
	}
	*o = Options(w.optionsFields)
	o.TimeBudget = time.Duration(w.TimeBudgetMS) * time.Millisecond
	return nil
}

// Validate checks the options' enumerated and signed fields, and
// normalizes values that route identically so that they encode to equal
// bytes: verify "off" becomes "", ordering "rudy" becomes "", a portfolio is
// deduplicated and sorted, and an ordering profile is dropped unless a
// strategy that reads it runs. The serving layer validates every request
// before keying it.
func (o *Options) Validate() error {
	mode, err := ParseVerifyMode(string(o.Verify))
	if err != nil {
		return err
	}
	o.Verify = mode
	if o.Parallelism < 0 {
		return fmt.Errorf("router: parallelism must be >= 0, got %d", o.Parallelism)
	}
	if o.TimeBudget < 0 {
		return fmt.Errorf("router: time budget must be >= 0, got %v", o.TimeBudget)
	}
	if o.Global.MaxOrderRounds < 0 {
		return fmt.Errorf("router: global max order rounds must be >= 0, got %d", o.Global.MaxOrderRounds)
	}
	// The global router keeps its usage in int32, as the graph keeps its
	// capacities; a larger share never fits an edge, and a negative one
	// would free capacity.
	if u := o.Global.EdgeUsePerNet; u < 0 || u > math.MaxInt32 {
		return fmt.Errorf("router: global edge use per net must be in [0, %d], got %d", math.MaxInt32, u)
	}
	if o.Ordering != "" && !portfolio.Known(o.Ordering) {
		return fmt.Errorf("router: unknown ordering strategy %q (have %v)", o.Ordering, portfolio.Names())
	}
	if len(o.Portfolio) > 0 {
		if o.Ordering != "" {
			return fmt.Errorf("router: ordering %q and portfolio %v are mutually exclusive", o.Ordering, o.Portfolio)
		}
		names, err := portfolio.NormalizeNames(o.Portfolio)
		if err != nil {
			return fmt.Errorf("router: %w", err)
		}
		o.Portfolio = names
	} else {
		o.Portfolio = nil // [] and absent encode to the same bytes
	}
	if o.Ordering == "rudy" {
		o.Ordering = "" // the nil-strategy path routes RUDY byte-identically
	}
	if o.OrderingProfile != nil {
		if err := o.OrderingProfile.Validate(); err != nil {
			return fmt.Errorf("router: %w", err)
		}
		if !portfolio.ReadsProfile(o.Ordering) && !slices.ContainsFunc(o.Portfolio, portfolio.ReadsProfile) {
			o.OrderingProfile = nil
		}
	}
	return nil
}
