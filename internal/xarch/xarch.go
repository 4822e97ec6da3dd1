// Package xarch is the traditional X-architecture RDL router baseline
// ("Cai" in Table II, after Cai et al., DAC'21) as a router.Options preset.
// Traditional RDL routers restrict wires to the four X-architecture
// orientations (0°, 45°, 90°, 135°), so:
//
//   - Global routing is the same competent tile-graph flow as the any-angle
//     router (Cai et al. pioneered the crossing-aware A* this work builds
//     on), so the baseline reaches the same 100% routability the paper
//     reports for it.
//   - Detailed routing skips the any-angle access-point adjustment (the
//     paper credits its wirelength gain in sparse regions to exactly that
//     adjustment versus the "fragmented detoured segments" of traditional
//     routers) and realizes every hop as an octilinear staircase: a 45°
//     diagonal leg plus an axis-parallel leg per segment.
//
// Wirelength is measured on the staircase geometry, which is the length an
// X-architecture router pays for the same topology.
//
//	out, err := router.Route(ctx, d, xarch.Options(router.Options{TimeBudget: time.Minute}))
package xarch

import "rdlroute/internal/router"

// Options returns base with the X-architecture baseline's settings: no DP
// access-point adjustment and octilinear detailed geometry.
func Options(base router.Options) router.Options {
	base.Detail.SkipAdjust = true
	base.Detail.Octilinear = true
	return base
}
