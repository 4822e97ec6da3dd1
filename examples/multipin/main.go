// Multi-pin nets and keep-outs: extends dense1 with a four-pin clock net
// (decomposed into spanning-tree subnets sharing one connectivity group)
// and a keep-out cavity in the routing channel, then routes everything and
// reports how the group and the obstacle were handled.
//
//	go run ./examples/multipin
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/geom"
	"rdlroute/internal/router"
	"rdlroute/internal/svg"
)

func main() {
	log.SetFlags(0)

	d, err := design.GenerateDense("dense1")
	if err != nil {
		log.Fatal(err)
	}

	// A 4-pin clock net spanning both chips.
	c0 := d.Chips[0].Outline
	c1 := d.Chips[1].Outline
	subnets, err := d.AddMultiPinNet("clk", []design.PadSpec{
		{Chip: 0, Pos: geom.Pt(c0.Max.X, c0.Min.Y+60)},
		{Chip: 1, Pos: geom.Pt(c1.Min.X, c1.Min.Y+60)},
		{Chip: 1, Pos: geom.Pt(c1.Min.X, c1.Max.Y-60)},
		{Chip: 0, Pos: geom.Pt(c0.Max.X, c0.Max.Y-60)},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clk net decomposed into %d spanning-tree subnets: %v\n", len(subnets), subnets)

	// A keep-out cavity in the middle of the channel.
	keepout := design.Obstacle{Name: "cavity", Rect: geom.R(1790, 1000, 1870, 1300)}
	if err := d.AddObstacle(keepout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("keep-out %v added\n", keepout.Rect)

	out, err := router.Route(context.Background(), d, router.Options{TimeBudget: 30 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	m := out.Metrics
	fmt.Printf("\nrouted %d/%d nets (%.1f%%), wirelength %.0f µm, %d vias, %v\n",
		m.RoutedNets, m.TotalNets, m.Routability*100, m.Wirelength, m.Vias,
		m.Runtime.Round(time.Millisecond))

	// The clock group's own wirelength.
	var clkWL float64
	for _, ni := range subnets {
		if rt := out.DetailResult.Routes[ni]; rt != nil {
			clkWL += rt.Wirelength()
		}
	}
	fmt.Printf("clk group wirelength: %.0f µm over %d subnets\n", clkWL, len(subnets))

	// Confirm nothing touches the keep-out.
	hits := 0
	for _, v := range out.Violations {
		if v.Kind == detail.ObstacleViolation {
			hits++
		}
	}
	fmt.Printf("keep-out violations: %d\n", hits)

	// Render layer 0 with the clock routes visible.
	if err := os.MkdirAll("out", 0o755); err != nil {
		log.Fatal(err)
	}
	f, err := os.Create("out/multipin_layer0.svg")
	if err != nil {
		log.Fatal(err)
	}
	if err := svg.Render(f, d, out.DetailResult.Routes, 0); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote out/multipin_layer0.svg")
}
