package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/obs"
	"rdlroute/internal/router"
)

// Priority orders jobs within the queue: all queued High jobs run before
// any Normal job, which run before any Low job; within a priority jobs run
// in submission order.
type Priority int

const (
	// Low suits background sweeps that should yield to interactive work.
	Low Priority = iota
	// Normal is the default.
	Normal
	// High jumps the queue; interactive requests and small re-routes.
	High
)

// ParsePriority maps the wire names "low", "normal", "high" (and "") to a
// Priority.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "low":
		return Low, nil
	case "", "normal":
		return Normal, nil
	case "high":
		return High, nil
	}
	return Normal, fmt.Errorf("serve: unknown priority %q", s)
}

// String returns the wire name.
func (p Priority) String() string {
	switch p {
	case Low:
		return "low"
	case High:
		return "high"
	}
	return "normal"
}

// State is a job's position in its lifecycle:
//
//	queued → running → done | failed | cancelled
//	queued → cancelled                 (cancelled before a worker picked it up)
//	       → done (cache_hit)          (submitted, answered from the cache)
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one routing request inside the engine. All methods are safe for
// concurrent use.
type Job struct {
	id       string
	key      string
	priority Priority
	d        *design.Design
	opt      router.Options

	// collect receives this job's pipeline events; the worker fans it
	// together with the engine-wide sinks into the run's recorder.
	collect *obs.Collector

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	state     State
	cacheHit  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	out       *router.Output
	err       error
}

// ID returns the engine-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Key returns the content-addressed cache key of the job's (design,
// options) pair.
func (j *Job) Key() string { return j.key }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job is terminal or ctx ends.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result returns the routing output once the job is done. The output of a
// cache hit is shared with every other job that hit the same key: treat it
// as read-only. Calling Result before the job is terminal returns
// ErrNotFinished.
func (j *Job) Result() (*router.Output, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, ErrNotFinished
	}
	return j.out, j.err
}

// StageSeconds returns the per-stage wall-clock breakdown of the job's own
// run; empty for cache hits, which ran no stages.
func (j *Job) StageSeconds() map[string]float64 {
	return j.collect.StageSeconds()
}

// JobStatus is the JSON snapshot served by GET /v1/jobs/{id}.
type JobStatus struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Priority string `json:"priority"`
	Design   string `json:"design"`
	Nets     int    `json:"nets"`
	CacheHit bool   `json:"cache_hit"`
	// SubmittedAt is RFC 3339 with sub-second precision.
	SubmittedAt time.Time `json:"submitted_at"`
	// WaitMS is time spent queued (so far, when still queued).
	WaitMS float64 `json:"wait_ms"`
	// RunMS is time spent routing (so far, when running; 0 for cache hits).
	RunMS float64 `json:"run_ms"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// Metrics is set once the job is done.
	Metrics *router.Metrics `json:"metrics,omitempty"`
}

// Status returns a snapshot of the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Priority:    j.priority.String(),
		Design:      j.d.Name,
		Nets:        len(j.d.Nets),
		CacheHit:    j.cacheHit,
		SubmittedAt: j.submitted,
	}
	switch {
	case j.state == StateQueued:
		st.WaitMS = ms(time.Since(j.submitted))
	case j.started.IsZero(): // terminal without ever running (cache hit, early cancel)
		st.WaitMS = ms(j.finished.Sub(j.submitted))
	default:
		st.WaitMS = ms(j.started.Sub(j.submitted))
		if j.state == StateRunning {
			st.RunMS = ms(time.Since(j.started))
		} else {
			st.RunMS = ms(j.finished.Sub(j.started))
		}
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == StateDone && j.out != nil {
		m := j.out.Metrics
		st.Metrics = &m
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// markRunning flips a queued job to running; it fails when the job was
// cancelled while queued, telling the worker to skip it.
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	//rdl:allow detrand job lifecycle timestamp: reported in the job status API, never used in routing
	j.started = time.Now()
	return true
}

// finish records the outcome and wakes waiters. The terminal state derives
// from err: nil → done, context cancellation → cancelled, else failed.
func (j *Job) finish(out *router.Output, err error, state State) {
	j.mu.Lock()
	j.state = state
	j.out = out
	j.err = err
	//rdl:allow detrand job lifecycle timestamp: reported in the job status API, never used in routing
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel() // release the job context's resources
	close(j.done)
}

// cancelQueued marks a still-queued job cancelled. Returns false when the
// job already left the queue.
func (j *Job) cancelQueued() bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateCancelled
	j.err = ErrCancelled
	//rdl:allow detrand job lifecycle timestamp: reported in the job status API, never used in routing
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel()
	close(j.done)
	return true
}

// snapshotState returns the current state.
func (j *Job) snapshotState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}
