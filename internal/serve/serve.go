// Package serve turns the one-shot routing pipeline into a service: a job
// engine that accepts design-routing requests, runs them on a bounded
// worker pool with per-job context deadlines, deduplicates repeated work
// through a content-addressed result cache, and reports itself through the
// obs layer.
//
// The shape mirrors an inference-serving stack. Admission control is the
// bounded priority queue (a full queue rejects with ErrQueueFull — HTTP
// 429 — instead of building unbounded backlog); the worker pool bounds
// concurrent pipeline runs; the LRU cache keyed by Key(design, options)
// makes net-ordering and parameter sweeps — many submissions of the same
// design — cost one route; Drain stops admission and lets in-flight work
// finish for graceful shutdown.
//
// Typical embedded use:
//
//	eng := serve.New(serve.Config{Workers: 4})
//	defer eng.Close()
//	job, err := eng.Submit(serve.Request{Design: d})
//	_ = job.Wait(ctx)
//	out, err := job.Result()
//
// NewHandler wraps an Engine into the HTTP/JSON API served by cmd/rdlserved.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/obs"
	"rdlroute/internal/router"
)

// Typed failures of the service surface. The HTTP layer maps them to status
// codes; embedded callers use errors.Is.
var (
	// ErrQueueFull rejects a submission against a saturated queue (429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining rejects submissions after Drain or Close began (503).
	ErrDraining = errors.New("serve: engine draining")
	// ErrNotFound marks an unknown job ID (404).
	ErrNotFound = errors.New("serve: no such job")
	// ErrNotFinished marks a result request for a job that is not yet
	// terminal (409).
	ErrNotFinished = errors.New("serve: job not finished")
	// ErrCancelled is the terminal error of a cancelled job.
	ErrCancelled = errors.New("serve: job cancelled")
)

// RouteFunc is the routing backend the workers call; it exists so tests and
// benchmarks can substitute a synthetic router. The default is router.Route.
type RouteFunc func(ctx context.Context, d *design.Design, opt router.Options) (*router.Output, error)

// Config sizes the engine.
type Config struct {
	// Workers is the number of concurrent pipeline runs. Zero selects
	// GOMAXPROCS, capped at 4 (routing is CPU-bound; more workers than
	// cores just thrash).
	Workers int
	// QueueCapacity bounds the number of queued (not yet running) jobs.
	// Zero selects 64.
	QueueCapacity int
	// CacheEntries bounds the result cache; zero selects 128, negative
	// disables caching.
	CacheEntries int
	// DefaultTimeBudget applies to jobs whose options carry no budget, so
	// no request can hold a worker forever. Zero selects 30 s.
	DefaultTimeBudget time.Duration
	// Rec receives every job's pipeline events plus the engine's own
	// counters and gauges — typically an obs.JSONL trace sink shared by
	// the whole server. The engine always keeps its own Collector for
	// /metricsz regardless.
	Rec obs.Recorder
	// Route substitutes the routing backend; nil selects router.Route.
	Route RouteFunc
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 4 {
			c.Workers = 4
		}
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.DefaultTimeBudget <= 0 {
		c.DefaultTimeBudget = 30 * time.Second
	}
	if c.Route == nil {
		c.Route = router.Route
	}
	return c
}

// Request is one routing submission.
type Request struct {
	// Design is the problem to route. Submit validates it; the serving
	// layer treats it as immutable afterwards.
	Design *design.Design
	// Spec is the deterministic router configuration (zero = defaults).
	Spec router.OptionsSpec
	// Priority orders the job against other queued work.
	Priority Priority
}

// Counter and gauge names the engine exports through obs and /metricsz.
const (
	CtrSubmitted = "serve.jobs.submitted"
	CtrCompleted = "serve.jobs.completed"
	CtrFailed    = "serve.jobs.failed"
	// CtrVerifyFailed counts jobs that routed but failed the strict
	// verification gate (a subset of CtrFailed).
	CtrVerifyFailed = "serve.jobs.verify_failed"
	CtrCancelled    = "serve.jobs.cancelled"
	CtrRejected     = "serve.jobs.rejected"
	CtrCacheHit     = "serve.cache.hits"
	CtrCacheMiss    = "serve.cache.misses"
	CtrCacheEvict   = "serve.cache.evictions"
	GaugeQueue      = "serve.queue.depth"
	GaugeRunning    = "serve.jobs.running"
)

// Engine is the concurrent routing job engine. Create with New, stop with
// Drain (graceful) or Close (immediate). All methods are safe for
// concurrent use.
type Engine struct {
	cfg     Config
	metrics *obs.Collector
	rec     obs.Recorder // metrics + cfg.Rec fan-out
	q       *queue
	results *cache

	baseCtx context.Context
	stopAll context.CancelFunc

	workers sync.WaitGroup // worker goroutines
	inFly   sync.WaitGroup // accepted jobs not yet terminal

	mu       sync.Mutex
	jobs     map[string]*Job
	seq      int64
	draining bool
	running  int
}

// New starts an engine with cfg.Workers workers already polling the queue.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:     cfg,
		metrics: obs.NewCollector(),
		q:       newQueue(cfg.QueueCapacity),
		results: newCache(cfg.CacheEntries),
		jobs:    make(map[string]*Job),
	}
	e.rec = obs.Multi(e.metrics, cfg.Rec)
	e.baseCtx, e.stopAll = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		e.workers.Add(1)
		go e.worker()
	}
	return e
}

// Submit validates and admits one request. Cache hits complete the returned
// job immediately (its State is already StateDone with CacheHit set); cache
// misses enqueue it. A saturated queue fails with ErrQueueFull, a draining
// engine with ErrDraining, an invalid design with the design package's
// typed validation error.
func (e *Engine) Submit(req Request) (*Job, error) {
	if req.Design == nil {
		return nil, errors.New("serve: nil design")
	}
	if err := req.Design.Validate(); err != nil {
		return nil, err
	}
	// Normalizes enum aliases (verify "off" → "") so equivalent requests
	// share a cache key, and rejects unknown modes before queueing.
	if err := req.Spec.Validate(); err != nil {
		return nil, err
	}
	key, err := Key(req.Design, req.Spec)
	if err != nil {
		return nil, fmt.Errorf("serve: cache key: %w", err)
	}

	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return nil, ErrDraining
	}
	e.seq++
	id := fmt.Sprintf("j%06d", e.seq)
	e.mu.Unlock()

	jctx, jcancel := context.WithCancel(e.baseCtx)
	j := &Job{
		id:       id,
		key:      key,
		priority: req.Priority,
		d:        req.Design,
		spec:     req.Spec,
		collect:  obs.NewCollector(),
		ctx:      jctx,
		cancel:   jcancel,
		done:     make(chan struct{}),
		state:    StateQueued,
		//rdl:allow detrand job lifecycle timestamp: reported in the job status API, never used in routing
		submitted: time.Now(),
	}

	if out, ok := e.results.get(key); ok {
		j.mu.Lock()
		j.cacheHit = true
		j.mu.Unlock()
		j.finish(out, nil, StateDone)
		e.register(j)
		e.rec.Count(CtrSubmitted, 1)
		e.rec.Count(CtrCacheHit, 1)
		e.rec.Count(CtrCompleted, 1)
		return j, nil
	}

	e.inFly.Add(1)
	if err := e.q.push(j); err != nil {
		e.inFly.Done()
		jcancel()
		if errors.Is(err, ErrQueueFull) {
			e.rec.Count(CtrRejected, 1)
		}
		return nil, err
	}
	e.register(j)
	e.rec.Count(CtrSubmitted, 1)
	e.rec.Count(CtrCacheMiss, 1)
	e.rec.Gauge(GaugeQueue, float64(e.q.len()))
	return j, nil
}

func (e *Engine) register(j *Job) {
	e.mu.Lock()
	e.jobs[j.id] = j
	e.mu.Unlock()
}

// Job returns the job with the given ID.
func (e *Engine) Job(id string) (*Job, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Cancel stops the job with the given ID: queued jobs become cancelled
// without running; running jobs get their context cancelled and finish as
// cancelled with the partial result the pipeline returns. Cancelling a
// terminal job is a no-op.
func (e *Engine) Cancel(id string) (JobStatus, error) {
	j, err := e.Job(id)
	if err != nil {
		return JobStatus{}, err
	}
	if j.cancelQueued() {
		e.inFly.Done()
		e.rec.Count(CtrCancelled, 1)
		return j.Status(), nil
	}
	// Running (or already terminal): cancelling the context is harmless
	// either way; the worker accounts for the terminal transition.
	j.cancel()
	return j.Status(), nil
}

// worker is the pool loop: pop, route, publish, repeat.
func (e *Engine) worker() {
	defer e.workers.Done()
	for {
		j, ok := e.q.pop()
		if !ok {
			return
		}
		e.rec.Gauge(GaugeQueue, float64(e.q.len()))
		if !j.markRunning() {
			// Cancelled while queued; Cancel already accounted for it.
			continue
		}
		e.setRunning(+1)
		e.runJob(j)
		e.setRunning(-1)
		e.inFly.Done()
	}
}

func (e *Engine) runJob(j *Job) {
	opt := j.spec.Options()
	if opt.TimeBudget <= 0 {
		opt.TimeBudget = e.cfg.DefaultTimeBudget
	}
	// Per-request recorder: the job's own collector (stage breakdown in
	// the result) fanned together with the engine-wide sinks (JSONL trace,
	// /metricsz collector).
	opt.Rec = obs.Multi(j.collect, e.rec)

	out, err := e.cfg.Route(j.ctx, j.d, opt)
	switch {
	case err == nil:
		// Deterministic, complete-or-timed-out result. Only runs the
		// budget did not cut short are cacheable: a timed-out partial
		// result depends on machine load, not just on the request.
		if out != nil && !out.Metrics.TimedOut {
			if ev := e.results.put(j.key, out); ev > 0 {
				e.rec.Count(CtrCacheEvict, int64(ev))
			}
		}
		j.finish(out, nil, StateDone)
		e.rec.Count(CtrCompleted, 1)
	case errors.Is(err, context.Canceled), errors.Is(err, ErrCancelled):
		j.finish(out, ErrCancelled, StateCancelled)
		e.rec.Count(CtrCancelled, 1)
	default:
		j.finish(out, err, StateFailed)
		e.rec.Count(CtrFailed, 1)
		if errors.Is(err, router.ErrVerifyFailed) {
			e.rec.Count(CtrVerifyFailed, 1)
		}
	}
}

func (e *Engine) setRunning(delta int) {
	e.mu.Lock()
	e.running += delta
	r := e.running
	e.mu.Unlock()
	e.rec.Gauge(GaugeRunning, float64(r))
}

// Drain gracefully shuts the engine down: new submissions fail with
// ErrDraining, queued and running jobs finish, workers exit. It returns nil
// once everything completed, or ctx.Err() after cancelling all remaining
// work because ctx expired first.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	e.draining = true
	e.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		e.inFly.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = ctx.Err()
		e.stopAll() // cancel running jobs; queued ones fail fast below
		e.cancelQueue()
		<-finished
	}
	e.q.close()
	e.workers.Wait()
	return err
}

// Close stops the engine immediately: running jobs are cancelled, queued
// jobs become cancelled without running. Safe to call more than once.
func (e *Engine) Close() {
	e.mu.Lock()
	e.draining = true
	e.mu.Unlock()
	e.stopAll()
	e.cancelQueue()
	e.q.close()
	e.workers.Wait()
}

// cancelQueue cancels every job still in the queued state.
func (e *Engine) cancelQueue() {
	e.mu.Lock()
	queued := make([]*Job, 0)
	for _, j := range e.jobs {
		if j.snapshotState() == StateQueued {
			queued = append(queued, j)
		}
	}
	e.mu.Unlock()
	for _, j := range queued {
		if j.cancelQueued() {
			e.inFly.Done()
			e.rec.Count(CtrCancelled, 1)
		}
	}
}

// Stats is the /metricsz snapshot.
type Stats struct {
	Workers    int  `json:"workers"`
	QueueDepth int  `json:"queue_depth"`
	QueueCap   int  `json:"queue_capacity"`
	Running    int  `json:"running"`
	Jobs       int  `json:"jobs"`
	CacheSize  int  `json:"cache_size"`
	CacheCap   int  `json:"cache_capacity"`
	Draining   bool `json:"draining"`
	// Counters holds the engine counter totals (see the Ctr* names) plus
	// any counters recorded by pipeline stages.
	Counters map[string]int64 `json:"counters"`
	// Gauges holds last-written gauge values.
	Gauges map[string]float64 `json:"gauges"`
}

// Stats returns a consistent snapshot of the engine.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := Stats{
		Workers:  e.cfg.Workers,
		QueueCap: e.cfg.QueueCapacity,
		Running:  e.running,
		Jobs:     len(e.jobs),
		CacheCap: e.cfg.CacheEntries,
		Draining: e.draining,
	}
	e.mu.Unlock()
	s.QueueDepth = e.q.len()
	s.CacheSize = e.results.len()
	s.Counters = e.metrics.Counters()
	s.Gauges = e.metrics.Gauges()
	return s
}

// Metrics exposes the engine's collector, e.g. for tests asserting on
// cache-hit counters.
func (e *Engine) Metrics() *obs.Collector { return e.metrics }
