package router

import (
	"fmt"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/obs"
	"rdlroute/internal/verify"
)

// VerifyMode selects how the verification gate treats a routed result. The
// zero value disables the gate, so existing callers are unaffected.
type VerifyMode string

// Gate modes. The wire names ("", "warn", "strict") are what the JSON form
// of Options carries as "verify"; rdlserved job requests also accept "off",
// which Options.Validate normalizes to "".
const (
	// VerifyOff skips the independent verifier entirely.
	VerifyOff VerifyMode = ""
	// VerifyWarn runs the verifier and attaches its report to the Output;
	// findings never fail the run.
	VerifyWarn VerifyMode = "warn"
	// VerifyStrict runs the verifier and turns findings into a *VerifyError
	// (matched by errors.Is against ErrVerifyFailed) with the problem list
	// attached.
	VerifyStrict VerifyMode = "strict"
)

// ParseVerifyMode maps the wire names "", "off", "warn" and "strict" to a
// VerifyMode ("off" normalizes to the canonical empty form).
func ParseVerifyMode(s string) (VerifyMode, error) {
	switch s {
	case "", "off":
		return VerifyOff, nil
	case "warn":
		return VerifyWarn, nil
	case "strict":
		return VerifyStrict, nil
	}
	return VerifyOff, fmt.Errorf("router: unknown verify mode %q (want off, warn or strict)", s)
}

// String names the mode ("off" for the canonical empty form).
func (m VerifyMode) String() string {
	if m == VerifyOff {
		return "off"
	}
	return string(m)
}

// runGate executes the verification gate on a routed result: the parallel
// independent verifier, reusing the pipeline's own DRC violations so the
// wire rules are not checked twice. Returns the report (nil when the gate
// is off).
func runGate(d *design.Design, routes []*detail.Route, violations []detail.Violation,
	mode VerifyMode, workers int, rec obs.Recorder) *verify.Report {
	if mode == VerifyOff {
		return nil
	}
	return verify.Check(d, routes, verify.Options{
		Workers: workers,
		Rec:     rec,
		DRC:     violations,
		HaveDRC: true,
	})
}
