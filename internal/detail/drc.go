package detail

import (
	"fmt"
	"math"

	"rdlroute/internal/geom"
	"rdlroute/internal/obs"
	"rdlroute/internal/pool"
)

// Design-rule checking over finished detailed routes. A uniform spatial hash
// buckets wire segments per layer so the pairwise spacing check only visits
// nearby candidates. The check decomposes into independent work units —
// per-layer grid builds, per-stripe spacing scans, per-net wire rules — that
// a worker pool can run concurrently; CheckDRCParallel in drc_engine.go is
// the one entry point. Findings come back in canonical order (sorted by
// layer, kind, nets, position) regardless of the worker count, so every pool
// size is byte-identical to the serial run.

// Violation describes one design-rule violation.
type Violation struct {
	Kind  ViolationKind
	Layer int
	NetA  int
	// NetB is the other net for spacing violations, -1 otherwise.
	NetB int
	// Where locates the violation.
	Where geom.Point
	// Value is the measured quantity (distance in µm, angle in radians).
	Value float64
	// Limit is the rule bound the value transgressed.
	Limit float64
}

// ViolationKind classifies design-rule violations.
type ViolationKind uint8

// Violation kinds.
const (
	// SpacingViolation: two different nets closer than w_w + w_s
	// (centre-to-centre).
	SpacingViolation ViolationKind = iota
	// AngleViolation: a turn sharper than 90° (interior angle below 90°).
	AngleViolation
	// TurnDistViolation: two successive turns closer than w_x.
	TurnDistViolation
	// ObstacleViolation: a wire enters a keep-out region of its layer.
	ObstacleViolation
)

// String returns a short name for the violation kind.
func (k ViolationKind) String() string {
	switch k {
	case SpacingViolation:
		return "spacing"
	case AngleViolation:
		return "angle"
	case ObstacleViolation:
		return "obstacle"
	default:
		return "turn-distance"
	}
}

// String formats a violation for logs.
func (v Violation) String() string {
	switch v.Kind {
	case SpacingViolation:
		return fmt.Sprintf("spacing: nets %d/%d on layer %d at %v: %.3f < %.3f",
			v.NetA, v.NetB, v.Layer, v.Where, v.Value, v.Limit)
	case AngleViolation:
		return fmt.Sprintf("angle: net %d on layer %d at %v: turn %.1f° > 90°",
			v.NetA, v.Layer, v.Where, v.Value*180/math.Pi)
	case ObstacleViolation:
		return fmt.Sprintf("obstacle: net %d on layer %d enters keep-out at %v",
			v.NetA, v.Layer, v.Where)
	default:
		return fmt.Sprintf("turn-distance: net %d on layer %d at %v: %.3f < %.3f",
			v.NetA, v.Layer, v.Where, v.Value, v.Limit)
	}
}

// DRCOptions tunes CheckDRCParallel.
type DRCOptions struct {
	// Workers is the worker-pool size. Zero or negative selects GOMAXPROCS
	// capped at 8; 1 runs the units serially (the reference path the
	// differential tests compare against).
	Workers int
	// Rec receives the checker's stage spans and findings-by-kind counters.
	// Nil selects the no-op recorder.
	Rec obs.Recorder
}

func (o DRCOptions) workers() int { return pool.Default(o.Workers) }
