// Package svg renders routed designs as SVG documents: the package outline,
// chips, pads, the bump pads of the bottom wire layer, and the detailed
// routes and vias of one wire layer. It regenerates the layout figures of
// the paper (Fig. 14 shows the first wire layer of dense5).
package svg

import (
	"fmt"
	"io"
	"strings"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/geom"
)

// scale maps µm to SVG user units.
const scale = 0.25

// netPalette cycles distinct stroke colors over nets.
var netPalette = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
	"#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
}

// Render writes an SVG document for one wire layer of a routed design: the
// outline, the chips, the I/O pads, the bump pads when layer is the bottom
// wire layer, and the routes and vias on the layer.
func Render(w io.Writer, d *design.Design, routes []*detail.Route, layer int) error {
	width := d.Outline.W() * scale
	height := d.Outline.H() * scale
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.2f %.2f">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, `<rect x="0" y="0" width="%.2f" height="%.2f" fill="#fafafa" stroke="#333" stroke-width="1"/>`+"\n",
		width, height)

	x := func(v float64) float64 { return (v - d.Outline.Min.X) * scale }
	y := func(v float64) float64 { return (v - d.Outline.Min.Y) * scale }

	// Chips.
	for _, c := range d.Chips {
		fmt.Fprintf(&b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#eef2f7" stroke="#8899aa" stroke-width="0.8"/>`+"\n",
			x(c.Outline.Min.X), y(c.Outline.Min.Y), c.Outline.W()*scale, c.Outline.H()*scale)
	}
	// Bump pads, on the bottom wire layer.
	if layer == d.WireLayers-1 {
		for _, p := range d.BumpPads {
			fmt.Fprintf(&b, `<circle cx="%.2f" cy="%.2f" r="%.2f" fill="#ddd" stroke="#bbb" stroke-width="0.3"/>`+"\n",
				x(p.Pos.X), y(p.Pos.Y), 3*scale)
		}
	}
	// I/O pads.
	for _, p := range d.IOPads {
		fmt.Fprintf(&b, `<circle cx="%.2f" cy="%.2f" r="%.2f" fill="#445" />`+"\n",
			x(p.Pos.X), y(p.Pos.Y), 2.2*scale)
	}
	// Routes of the chosen layer.
	for _, rt := range routes {
		if rt == nil {
			continue
		}
		color := netPalette[rt.Net%len(netPalette)]
		for _, seg := range rt.Segs {
			if seg.Layer != layer {
				continue
			}
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="%.2f" stroke-linejoin="round"/>`+"\n",
				points(seg.Pl, x, y), color, d.WidthOf(rt.Net)*scale)
		}
		for _, v := range rt.Vias {
			// A via on via layer k touches wire layers k and k+1.
			if v.Layer != layer && v.Layer+1 != layer {
				continue
			}
			fmt.Fprintf(&b, `<circle cx="%.2f" cy="%.2f" r="%.2f" fill="none" stroke="%s" stroke-width="%.2f"/>`+"\n",
				x(v.Pos.X), y(v.Pos.Y), d.Rules.ViaWidth/2*scale, color, 0.8*scale)
		}
	}
	fmt.Fprintf(&b, "</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func points(pl geom.Polyline, x, y func(float64) float64) string {
	var sb strings.Builder
	for i, p := range pl {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%.2f,%.2f", x(p.X), y(p.Y))
	}
	return sb.String()
}
