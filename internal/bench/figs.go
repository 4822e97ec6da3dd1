package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/router"
	"rdlroute/internal/svg"
)

// Fig2Row is one sample of the channel-utilization series behind Fig. 2 of
// the paper: a channel of width d between two vias, approached at angle
// theta. A traditional router must cross it with the nearest X-architecture
// orientation, so its effective channel length is the projection onto that
// orientation; any-angle routing crosses perpendicular to the channel and
// uses the full length.
type Fig2Row struct {
	// ThetaDeg is the channel orientation in degrees from the x-axis.
	ThetaDeg float64
	// FixedCapacity and AnyAngleCapacity are wire counts through a channel
	// of the given length at the default wire pitch.
	FixedCapacity    int
	AnyAngleCapacity int
	// Ratio is fixed/any-angle utilization.
	Ratio float64
}

// Fig2 computes the channel-utilization series: for channel orientations
// 0°–90°, the fraction of a channel's capacity a fixed-orientation router
// can use versus an any-angle router (Fig. 2's motivation, quantified).
func Fig2(channelLen float64, rules design.Rules) []Fig2Row {
	var rows []Fig2Row
	for deg := 0; deg <= 90; deg += 5 {
		theta := float64(deg) * math.Pi / 180
		// Distance (in multiples of 45°) to the nearest X-architecture
		// orientation; the worst case is 22.5°.
		delta := math.Mod(theta, math.Pi/4)
		if delta > math.Pi/8 {
			delta = math.Pi/4 - delta
		}
		eff := channelLen * math.Cos(delta)
		fixed := int(math.Floor(eff / rules.Pitch()))
		anyAngle := int(math.Floor(channelLen / rules.Pitch()))
		ratio := 1.0
		if anyAngle > 0 {
			ratio = float64(fixed) / float64(anyAngle)
		}
		rows = append(rows, Fig2Row{
			ThetaDeg:         float64(deg),
			FixedCapacity:    fixed,
			AnyAngleCapacity: anyAngle,
			Ratio:            ratio,
		})
	}
	return rows
}

// PrintFig2 renders the Fig. 2 series as text.
func PrintFig2(w io.Writer, rules design.Rules) {
	const channel = 420 // µm, the generated designs' channel width
	fmt.Fprintln(w, "Fig. 2: channel utilization, fixed-orientation vs any-angle")
	fmt.Fprintf(w, "channel length %.0f µm, wire pitch %.1f µm\n", float64(channel), rules.Pitch())
	fmt.Fprintf(w, "%8s %12s %12s %8s\n", "theta", "fixed cap", "any-angle", "ratio")
	worst := 1.0
	for _, r := range Fig2(channel, rules) {
		fmt.Fprintf(w, "%7.0f° %12d %12d %8.4f\n",
			r.ThetaDeg, r.FixedCapacity, r.AnyAngleCapacity, r.Ratio)
		if r.Ratio < worst {
			worst = r.Ratio
		}
	}
	fmt.Fprintf(w, "worst-case utilization of the fixed-orientation router: %.4f (cos 22.5° = %.4f)\n\n",
		worst, math.Cos(math.Pi/8))
}

// Fig14 routes dense5 and writes the first wire layer as SVG (Fig. 14 of
// the paper). It returns the routing metrics for the caption.
func Fig14(ctx context.Context, w io.Writer, budget time.Duration) (*router.Output, error) {
	d, err := design.GenerateDense("dense5")
	if err != nil {
		return nil, err
	}
	out, err := router.Route(ctx, d, router.Options{TimeBudget: budget})
	if err != nil {
		return nil, err
	}
	if err := svg.Render(w, d, out.DetailResult.Routes, 0); err != nil {
		return nil, err
	}
	return out, nil
}
