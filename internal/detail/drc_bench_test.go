package detail

import (
	"fmt"
	"testing"
)

// BenchmarkDRC measures the full design-rule check (grid build + scan) on
// two dense benchmarks across pool sizes. Workers=1 is the serial
// reference; cmd/rdlbench's drc.check_s times the stage inside a whole run.
func BenchmarkDRC(b *testing.B) {
	for _, tc := range []string{"dense3", "dense5"} {
		d, routes := routedCase(b, tc)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers%d", tc, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					CheckDRCParallel(routes, d, DRCOptions{Workers: workers})
				}
			})
		}
	}
}
