package design

import (
	"fmt"

	"rdlroute/internal/geom"
)

// caseSpec describes one member of the dense benchmark family. The counts
// reproduce Table I of the paper exactly.
type caseSpec struct {
	name       string
	chipCols   int
	chipRows   int
	chipMask   []bool // which grid slots hold a chip; nil = all
	nets       int
	bumpCols   int
	bumpRows   int
	wireLayers int
}

var denseSpecs = []caseSpec{
	{name: "dense1", chipCols: 2, chipRows: 1, nets: 22, bumpCols: 18, bumpRows: 18, wireLayers: 2},
	{name: "dense2", chipCols: 3, chipRows: 1, nets: 46, bumpCols: 28, bumpRows: 28, wireLayers: 2},
	{name: "dense3", chipCols: 3, chipRows: 2, chipMask: []bool{true, true, true, true, true, false},
		nets: 79, bumpCols: 22, bumpRows: 14, wireLayers: 3},
	{name: "dense4", chipCols: 3, chipRows: 2, nets: 111, bumpCols: 36, bumpRows: 19, wireLayers: 3},
	{name: "dense5", chipCols: 3, chipRows: 3, nets: 261, bumpCols: 38, bumpRows: 38, wireLayers: 4},
}

// DenseNames lists the generated benchmark names in Table I order.
func DenseNames() []string {
	names := make([]string, len(denseSpecs))
	for i, s := range denseSpecs {
		names[i] = s.name
	}
	return names
}

// Physical layout constants of the generated packages (µm).
const (
	genChipW   = 1200.0
	genChipH   = 1200.0
	genChannel = 420.0 // chip-to-chip routing channel width
	genMargin  = 420.0 // outline margin around the chip array
)

// GenerateDense builds the named benchmark (dense1 … dense5). The result is
// deterministic: the same name always yields the identical design.
func GenerateDense(name string) (*Design, error) {
	for _, s := range denseSpecs {
		if s.name == name {
			return generate(s)
		}
	}
	return nil, fmt.Errorf("design: unknown benchmark %q (have %v)", name, DenseNames())
}

// side identifies a chip edge.
type side int

const (
	sideLeft side = iota
	sideRight
	sideTop
	sideBottom
)

type chipPair struct {
	a, b         int
	sideA, sideB side
}

func generate(s caseSpec) (*Design, error) {
	d := &Design{
		Name:       s.name,
		Rules:      DefaultRules(),
		WireLayers: s.wireLayers,
	}

	// Chip array.
	outW := 2*genMargin + float64(s.chipCols)*genChipW + float64(s.chipCols-1)*genChannel
	outH := 2*genMargin + float64(s.chipRows)*genChipH + float64(s.chipRows-1)*genChannel
	d.Outline = geom.R(0, 0, outW, outH)

	slot := make([]int, s.chipCols*s.chipRows) // grid slot -> chip index or -1
	for i := range slot {
		slot[i] = -1
	}
	for r := 0; r < s.chipRows; r++ {
		for c := 0; c < s.chipCols; c++ {
			si := r*s.chipCols + c
			if s.chipMask != nil && !s.chipMask[si] {
				continue
			}
			x0 := genMargin + float64(c)*(genChipW+genChannel)
			y0 := genMargin + float64(r)*(genChipH+genChannel)
			slot[si] = len(d.Chips)
			d.Chips = append(d.Chips, Chip{
				Name:    fmt.Sprintf("%s_chip%d", s.name, len(d.Chips)),
				Outline: geom.R(x0, y0, x0+genChipW, y0+genChipH),
			})
		}
	}

	// Adjacent chip pairs (horizontal then vertical, row-major) carry the
	// dense channel traffic; far pairs (grid distance ≥ 2) carry long nets
	// that stress multi-layer routing.
	var pairs, farPairs []chipPair
	gridPos := make(map[int][2]int) // chip index -> (row, col)
	for r := 0; r < s.chipRows; r++ {
		for c := 0; c+1 < s.chipCols; c++ {
			a, b := slot[r*s.chipCols+c], slot[r*s.chipCols+c+1]
			if a != -1 && b != -1 {
				pairs = append(pairs, chipPair{a: a, b: b, sideA: sideRight, sideB: sideLeft})
			}
		}
	}
	for r := 0; r+1 < s.chipRows; r++ {
		for c := 0; c < s.chipCols; c++ {
			a, b := slot[r*s.chipCols+c], slot[(r+1)*s.chipCols+c]
			if a != -1 && b != -1 {
				pairs = append(pairs, chipPair{a: a, b: b, sideA: sideBottom, sideB: sideTop})
			}
		}
	}
	for r := 0; r < s.chipRows; r++ {
		for c := 0; c < s.chipCols; c++ {
			if ci := slot[r*s.chipCols+c]; ci != -1 {
				gridPos[ci] = [2]int{r, c}
			}
		}
	}
	for a := 0; a < len(d.Chips); a++ {
		for b := a + 1; b < len(d.Chips); b++ {
			pa, pb := gridPos[a], gridPos[b]
			dr, dc := pb[0]-pa[0], pb[1]-pa[1]
			if abs(dr)+abs(dc) < 2 {
				continue
			}
			fp := chipPair{a: a, b: b}
			if abs(dc) >= abs(dr) {
				fp.sideA, fp.sideB = sideRight, sideLeft
				if dc < 0 {
					fp.sideA, fp.sideB = sideLeft, sideRight
				}
			} else {
				fp.sideA, fp.sideB = sideBottom, sideTop
				if dr < 0 {
					fp.sideA, fp.sideB = sideTop, sideBottom
				}
			}
			farPairs = append(farPairs, fp)
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("design: %s has no adjacent chip pairs", s.name)
	}

	// Assign nets to pairs: every fourth net goes to a far pair when one
	// exists, the rest spread round-robin over the adjacent pairs. Nets are
	// then grouped per pair so each pair owns a contiguous block of pad
	// slots on its two edges.
	pairNets := make([][]int, len(pairs))
	farNets := make([][]int, len(farPairs))
	for i := 0; i < s.nets; i++ {
		if len(farPairs) > 0 && i%4 == 3 {
			fi := (i / 4) % len(farPairs)
			farNets[fi] = append(farNets[fi], i)
		} else {
			pi := i % len(pairs)
			pairNets[pi] = append(pairNets[pi], i)
		}
	}

	// Count pads per chip edge so positions can spread evenly, block by
	// block.
	edgeCount := make(map[[2]int]int) // (chip, side) -> pad count
	countPair := func(pr chipPair, n int) {
		edgeCount[[2]int{pr.a, int(pr.sideA)}] += n
		edgeCount[[2]int{pr.b, int(pr.sideB)}] += n
	}
	for pi, ns := range pairNets {
		countPair(pairs[pi], len(ns))
	}
	for fi, ns := range farNets {
		countPair(farPairs[fi], len(ns))
	}

	edgeSeen := make(map[[2]int]int)
	padPos := func(chip int, sd side, k, total int) geom.Point {
		co := d.Chips[chip].Outline
		frac := float64(k+1) / float64(total+1)
		switch sd {
		case sideLeft:
			return geom.Pt(co.Min.X, co.Min.Y+frac*co.H())
		case sideRight:
			return geom.Pt(co.Max.X, co.Min.Y+frac*co.H())
		case sideTop:
			return geom.Pt(co.Min.X+frac*co.W(), co.Min.Y)
		default: // sideBottom
			return geom.Pt(co.Min.X+frac*co.W(), co.Max.Y)
		}
	}
	addPad := func(chip int, sd side, slotIdx, net int) int {
		key := [2]int{chip, int(sd)}
		pos := padPos(chip, sd, slotIdx, edgeCount[key])
		p := Pad{ID: len(d.IOPads), Net: net, Chip: chip, Pos: pos}
		d.IOPads = append(d.IOPads, p)
		return p.ID
	}
	netPins := make([][2]int, s.nets)
	// Adjacent pairs: the B-side pairing is rotated by a third of the block,
	// so most nets travel diagonally across the channel and the wrapped ones
	// must cross the rest — forcing layer changes and exercising the
	// crossing-aware search (the congested regime of the paper's Fig. 14).
	emitBlock := func(pr chipPair, ns []int, shift int) {
		keyA := [2]int{pr.a, int(pr.sideA)}
		keyB := [2]int{pr.b, int(pr.sideB)}
		baseA, baseB := edgeSeen[keyA], edgeSeen[keyB]
		n := len(ns)
		for j, net := range ns {
			pa := addPad(pr.a, pr.sideA, baseA+j, net)
			pb := addPad(pr.b, pr.sideB, baseB+(j+shift)%n, net)
			netPins[net] = [2]int{pa, pb}
		}
		edgeSeen[keyA] += n
		edgeSeen[keyB] += n
	}
	for pi, ns := range pairNets {
		if len(ns) == 0 {
			continue
		}
		emitBlock(pairs[pi], ns, len(ns)/2)
	}
	for fi, ns := range farNets {
		if len(ns) == 0 {
			continue
		}
		emitBlock(farPairs[fi], ns, 0)
	}
	for i := 0; i < s.nets; i++ {
		d.Nets = append(d.Nets, Net{
			ID:   i,
			Name: fmt.Sprintf("n%d", i),
			Pins: netPins[i],
		})
	}

	// Bump grid across the whole package bottom.
	bm := genMargin / 2
	for r := 0; r < s.bumpRows; r++ {
		for c := 0; c < s.bumpCols; c++ {
			fx := 0.5
			if s.bumpCols > 1 {
				fx = float64(c) / float64(s.bumpCols-1)
			}
			fy := 0.5
			if s.bumpRows > 1 {
				fy = float64(r) / float64(s.bumpRows-1)
			}
			pos := geom.Pt(bm+fx*(outW-2*bm), bm+fy*(outH-2*bm))
			d.BumpPads = append(d.BumpPads, Pad{
				ID: len(d.BumpPads), Net: -1, Chip: -1, Pos: pos,
			})
		}
	}

	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("design: generated %s is invalid: %w", s.name, err)
	}
	return d, nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
