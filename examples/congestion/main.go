// Congestion study: the Fig. 2 motivation of the paper made concrete. The
// same design is routed with the any-angle router and the X-architecture
// baseline; the example reports the wirelength gap, the channel-utilization
// series behind it, and where the extra X-architecture length comes from
// (staircase detours on oblique nets).
//
//	go run ./examples/congestion
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"rdlroute/internal/bench"
	"rdlroute/internal/design"
	"rdlroute/internal/router"
	"rdlroute/internal/xarch"
)

func main() {
	log.SetFlags(0)

	// The analytical series of Fig. 2: how much of a routing channel a
	// fixed-orientation router can use, by channel angle.
	bench.PrintFig2(os.Stdout, design.DefaultRules())

	// The same effect measured on a real design.
	const name = "dense2"
	d, err := design.GenerateDense(name)
	if err != nil {
		log.Fatal(err)
	}
	ours, err := router.Route(context.Background(), d, router.Options{TimeBudget: 60 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	d2, err := design.GenerateDense(name)
	if err != nil {
		log.Fatal(err)
	}
	cai, err := router.Route(context.Background(), d2, xarch.Options(router.Options{TimeBudget: 60 * time.Second}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("measured on %s:\n", name)
	fmt.Printf("  any-angle:      %8.0f µm (%v)\n",
		ours.Metrics.Wirelength, ours.Metrics.Runtime.Round(time.Millisecond))
	fmt.Printf("  X-architecture: %8.0f µm (%v)\n",
		cai.Metrics.Wirelength, cai.Metrics.Runtime.Round(time.Millisecond))
	fmt.Printf("  any-angle saves %.1f%%\n",
		100*(cai.Metrics.Wirelength-ours.Metrics.Wirelength)/cai.Metrics.Wirelength)

	// Per-net gap distribution: which nets pay the biggest staircase tax.
	fmt.Println("\nworst five nets for the X-architecture router:")
	type gap struct {
		net   int
		ours  float64
		cai   float64
		ratio float64
	}
	var gaps []gap
	for ni := range d.Nets {
		ro := ours.DetailResult.Routes[ni]
		rc := cai.DetailResult.Routes[ni]
		if ro == nil || rc == nil {
			continue
		}
		g := gap{net: ni, ours: ro.Wirelength(), cai: rc.Wirelength()}
		if g.ours > 0 {
			g.ratio = g.cai / g.ours
		}
		gaps = append(gaps, g)
	}
	for k := 0; k < 5; k++ {
		best := -1
		for i := range gaps {
			if best == -1 || gaps[i].ratio > gaps[best].ratio {
				best = i
			}
		}
		if best == -1 {
			break
		}
		g := gaps[best]
		fmt.Printf("  net %-3d any-angle %7.1f µm, X-arch %7.1f µm (%.2fx)\n",
			g.net, g.ours, g.cai, g.ratio)
		gaps = append(gaps[:best], gaps[best+1:]...)
	}
}
