package portfolio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Profile parameterizes the Congestion strategy's scorer. The zero value
// means "all defaults" (see withDefaults); a weight explicitly set to a
// non-zero value wins. Profiles are part of a request's cache identity, so
// the struct is flat, canonically ordered and JSON-stable.
//
// A profile is typically trained offline: route a design corpus, read the
// per-net congestion counters from the obs trail, and fit weights that rank
// troublesome nets first.
type Profile struct {
	// CongestedWeight scales the over-threshold RUDY tile count of a net's
	// seed path. Default 1.
	CongestedWeight float64 `json:"congested_weight,omitempty"`
	// ConflictWeight scales a net's shared-congested-tile degree (how many
	// congested tiles it contests with other nets). Default 0.25.
	ConflictWeight float64 `json:"conflict_weight,omitempty"`
	// LengthWeight scales the pin-to-pin distance in µm; negative prefers
	// short nets first among equally congested ones. Default -0.002.
	LengthWeight float64 `json:"length_weight,omitempty"`
}

// DefaultProfile returns the built-in weights: congested tiles dominate,
// conflict degree breaks clusters apart, and a slight preference for
// shorter nets.
func DefaultProfile() Profile {
	return Profile{CongestedWeight: 1, ConflictWeight: 0.25, LengthWeight: -0.002}
}

// withDefaults fills zero weights with the built-in defaults. A profile
// that genuinely wants a zero weight can use a tiny epsilon; in practice a
// zeroed field means "unset" in the JSON wire form.
func (p Profile) withDefaults() Profile {
	d := DefaultProfile()
	if p.CongestedWeight == 0 {
		p.CongestedWeight = d.CongestedWeight
	}
	if p.ConflictWeight == 0 {
		p.ConflictWeight = d.ConflictWeight
	}
	if p.LengthWeight == 0 {
		p.LengthWeight = d.LengthWeight
	}
	return p
}

// Validate rejects non-finite weights, which would poison both the scorer
// and the canonical JSON encoding cache keys are built from.
func (p Profile) Validate() error {
	for _, w := range []struct {
		name string
		v    float64
	}{
		{"congested_weight", p.CongestedWeight},
		{"conflict_weight", p.ConflictWeight},
		{"length_weight", p.LengthWeight},
	} {
		if math.IsNaN(w.v) || math.IsInf(w.v, 0) {
			return fmt.Errorf("portfolio: profile %s is not finite", w.name)
		}
	}
	return nil
}

// ParseProfile decodes a profile from JSON. Unknown fields are rejected so
// a misspelled weight cannot silently fall back to its default.
func ParseProfile(b []byte) (Profile, error) {
	var p Profile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Profile{}, fmt.Errorf("portfolio: parse profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// LoadProfile reads a profile JSON file.
func LoadProfile(path string) (Profile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Profile{}, fmt.Errorf("portfolio: load profile: %w", err)
	}
	return ParseProfile(b)
}
