package detail

import (
	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// ViaWirePair is a via of net Via at Pos and a wire of net Wire closer to
// it than their via-wire limit.
type ViaWirePair struct {
	Via, Wire int
	Pos       geom.Point
}

// RefusedViaWirePairs builds the legality index over the routes, asks its
// strict via query about every wire segment, and returns each via–wire pair
// the query refuses. It lets the external tests hold the index against the
// verifier, which imports this package.
func RefusedViaWirePairs(routes []*Route, d *design.Design) map[ViaWirePair]bool {
	x := newLegalIndex(routes, d)
	out := make(map[ViaWirePair]bool)
	for layer, segs := range x.segs {
		vias := x.vias[layer]
		for _, e := range segs {
			limit := d.Rules.ViaWireClearance(d.WidthOf(e.net))
			for _, i := range x.viaGrids[layer].near(e.seg, &x.scr) {
				if !x.viaOK(e.seg, e.net, limit, false, geom.Segment{}, geom.Segment{}, &vias[i]) {
					out[ViaWirePair{Via: vias[i].net, Wire: e.net, Pos: vias[i].pos}] = true
				}
			}
		}
	}
	return out
}
