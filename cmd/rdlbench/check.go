package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/verify"
)

// opResult is what the benchmark keeps of one routed design: the quality
// numbers it reports and the evidence it checks.
type opResult struct {
	err          error
	fp           uint64 // fingerprint of the routed geometry and finding counts
	winner       string // portfolio winner; empty for single-attempt runs
	nets, routed int
	wirelength   float64
	vias         int
	drc          int
	verify       int // every verify finding; the rule kind repeats the DRC findings
	verifyOwn    int // verify findings other than the rule kind
	connectivity int
}

// summarize reduces one routed result to an opResult.
func summarize(d *design.Design, dres *detail.Result, violations []detail.Violation,
	report *verify.Report, winner string) opResult {
	res := opResult{
		nets:       len(d.Nets),
		wirelength: dres.Wirelength,
		drc:        len(violations),
		winner:     winner,
	}
	for _, rt := range dres.Routes {
		if rt != nil {
			res.routed++
			res.vias += len(rt.Vias)
		}
	}
	if report != nil {
		res.verify = len(report.Problems)
		res.verifyOwn = res.verify - report.Count(verify.RuleViolation)
		res.connectivity = report.Count(verify.BrokenConnectivity)
	}
	res.fp = fingerprint(dres.Routes, res.drc, res.verify)
	return res
}

// fingerprint hashes (FNV-64a) the exact bits of every polyline point and
// via of every route, in net order, followed by the DRC and verify finding
// counts. Two runs with equal fingerprints produced the same output.
func fingerprint(routes []*detail.Route, drc, findings int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putPt := func(x, y float64) {
		put(math.Float64bits(x))
		put(math.Float64bits(y))
	}
	for net, rt := range routes {
		put(uint64(net))
		if rt == nil {
			put(math.MaxUint64)
			continue
		}
		for _, s := range rt.Segs {
			put(uint64(s.Layer))
			put(uint64(len(s.Pl)))
			for _, p := range s.Pl {
				putPt(p.X, p.Y)
			}
		}
		put(uint64(len(rt.Vias)))
		for _, v := range rt.Vias {
			put(uint64(v.Layer))
			putPt(v.Pos.X, v.Pos.Y)
		}
	}
	put(uint64(drc))
	put(uint64(findings))
	return h.Sum64()
}

// quality sums the quality numbers of one sample's routed designs.
type quality struct {
	nets, routed int
	wirelength   float64
	vias         int
	drc          int
	verify       int
}

func (q *quality) add(r opResult) {
	q.nets += r.nets
	q.routed += r.routed
	q.wirelength += r.wirelength
	q.vias += r.vias
	q.drc += r.drc
	q.verify += r.verify
}

func (q quality) routability() float64 {
	if q.nets == 0 {
		return 0
	}
	return float64(q.routed) / float64(q.nets)
}
