package serve

import (
	"context"
	"fmt"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/router"
)

// BenchmarkServeThroughput measures end-to-end engine throughput (submit →
// route → terminal) through the real pipeline on a small design, across
// pool sizes, cold (every job a distinct cache key) and hot (every job the
// same key, served from cache).
func BenchmarkServeThroughput(b *testing.B) {
	d, err := design.GenerateRandom(design.RandomSpec{Seed: 11, Chips: 2, NetsPerChannel: 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []string{"cold", "cachehit"} {
			b.Run(fmt.Sprintf("pool%d/%s", workers, mode), func(b *testing.B) {
				benchThroughput(b, d, workers, mode)
			})
		}
	}
}

func benchThroughput(b *testing.B, d *design.Design, workers int, mode string) {
	e := New(Config{
		Workers: workers,
		// The queue must absorb the whole burst: the benchmark measures
		// routing throughput, not admission control.
		QueueCapacity: b.N + 1,
		CacheEntries:  b.N + 2,
	})
	defer e.Close()

	var opt router.Options
	if mode == "cachehit" {
		// Prime the cache so every measured submission hits.
		j, err := e.Submit(Request{Design: d, Options: opt})
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	jobs := make([]*Job, b.N)
	for i := 0; i < b.N; i++ {
		job := d
		if mode == "cold" {
			// A distinct design name gives every job a distinct cache key
			// over the same routing work — the cold path of a sweep.
			named := *d
			named.Name = fmt.Sprintf("%s-%d", d.Name, i)
			job = &named
		}
		j, err := e.Submit(Request{Design: job, Options: opt})
		if err != nil {
			b.Fatal(err)
		}
		jobs[i] = j
	}
	for _, j := range jobs {
		if err := j.Wait(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, j := range jobs {
		st := j.Status()
		if st.State != StateDone {
			b.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
		if mode == "cachehit" && !st.CacheHit {
			b.Fatal("cachehit mode missed the cache")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}
