package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/router"
)

// benchResults accumulates the last (largest-N) run of every sub-benchmark;
// TestMain writes them as BENCH_serve.json when BENCH_SERVE_OUT is set
// (`make bench-serve`), starting the serving-layer perf trajectory.
var benchResults = struct {
	mu sync.Mutex
	m  map[string]benchResult
}{m: make(map[string]benchResult)}

type benchResult struct {
	Name       string  `json:"name"`
	Workers    int     `json:"workers"`
	Mode       string  `json:"mode"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	MsPerJob   float64 `json:"ms_per_job"`
	N          int     `json:"n"`
}

func recordBench(r benchResult) {
	benchResults.mu.Lock()
	benchResults.m[r.Name] = r
	benchResults.mu.Unlock()
}

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_SERVE_OUT"); path != "" && code == 0 {
		benchResults.mu.Lock()
		out := make([]benchResult, 0, len(benchResults.m))
		for _, r := range benchResults.m {
			out = append(out, r)
		}
		benchResults.mu.Unlock()
		// Canonical name order: map iteration would shuffle the file between
		// runs and bury real regressions in spurious diffs.
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		if len(out) > 0 {
			b, err := json.MarshalIndent(out, "", " ")
			if err == nil {
				err = os.WriteFile(path, append(b, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench json: %v\n", err)
				code = 1
			}
		}
	}
	os.Exit(code)
}

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
			name := fmt.Sprintf("pool%d/%s", workers, mode)
			b.Run(name, func(b *testing.B) {
				benchThroughput(b, d, workers, mode)
				recordBench(benchResult{
					Name:       name,
					Workers:    workers,
					Mode:       mode,
					JobsPerSec: float64(b.N) / b.Elapsed().Seconds(),
					MsPerJob:   b.Elapsed().Seconds() * 1000 / float64(b.N),
					N:          b.N,
				})
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
