// InFO flow: route a multi-layer package (dense3: five chips, three wire
// layers), inspect per-layer utilization and via usage, and emit one SVG
// per wire layer — the workflow of a packaging engineer checking an InFO
// RDL design layer by layer.
//
//	go run ./examples/infoflow
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/router"
	"rdlroute/internal/svg"
)

func main() {
	log.SetFlags(0)

	d, err := design.GenerateDense("dense3")
	if err != nil {
		log.Fatal(err)
	}
	out, err := router.Route(context.Background(), d, router.Options{TimeBudget: 60 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	m := out.Metrics
	fmt.Printf("%s routed: %.1f%% routability, %.0f µm, %d vias, %v\n",
		d.Name, m.Routability*100, m.Wirelength, m.Vias, m.Runtime.Round(time.Millisecond))

	// Per-layer breakdown: wirelength and net count on each wire layer.
	fmt.Println("\nper-layer utilization:")
	for layer := 0; layer < d.WireLayers; layer++ {
		var wl float64
		nets := map[int]bool{}
		for _, rl := range detail.SegmentsOnLayer(out.DetailResult.Routes, layer) {
			wl += rl.Pl.Length()
			nets[rl.Net] = true
		}
		fmt.Printf("  wire layer %d: %8.0f µm over %3d nets\n", layer, wl, len(nets))
	}

	// Via usage per via layer.
	viaCount := map[int]int{}
	for _, rt := range out.DetailResult.Routes {
		if rt == nil {
			continue
		}
		for _, v := range rt.Vias {
			viaCount[v.Layer]++
		}
	}
	fmt.Println("\nvia usage:")
	for vl := 0; vl < d.WireLayers-1; vl++ {
		fmt.Printf("  via layer %d-%d: %d vias\n", vl, vl+1, viaCount[vl])
	}

	// Per-layer SVGs.
	outDir := "out"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	for layer := 0; layer < d.WireLayers; layer++ {
		path := filepath.Join(outDir, fmt.Sprintf("dense3_layer%d.svg", layer))
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := svg.Render(f, d, out.DetailResult.Routes, layer); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
