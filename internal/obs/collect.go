package obs

import (
	"sync"
	"time"
)

// Collector aggregates events in memory: per-stage wall-clock totals,
// counter totals, and last-written gauges. The bench harness attaches one
// per routing run to break runtimes down per stage.
type Collector struct {
	mu       sync.Mutex
	stages   map[string]time.Duration
	order    []string // stage names in first-seen order
	counters map[string]int64
	gauges   map[string]float64
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{
		stages:   make(map[string]time.Duration),
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
	}
}

// Enabled implements Recorder.
func (c *Collector) Enabled() bool { return true }

// StageStart implements Recorder; the Collector only needs StageEnd but
// records first-seen order here so nested sub-stages list after parents.
func (c *Collector) StageStart(stage string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.stages[stage]; !ok {
		c.stages[stage] = 0
		c.order = append(c.order, stage)
	}
}

// StageEnd implements Recorder.
func (c *Collector) StageEnd(stage string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.stages[stage]; !ok {
		c.order = append(c.order, stage)
	}
	c.stages[stage] += d
}

// Count implements Recorder.
func (c *Collector) Count(name string, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counters[name] += delta
}

// Gauge implements Recorder.
func (c *Collector) Gauge(name string, v float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gauges[name] = v
}

// Progress implements Recorder; the aggregate view has no use for the
// per-net stream.
func (c *Collector) Progress(string, int, int) {}

// StageSeconds returns a copy of the per-stage wall-clock totals in seconds.
func (c *Collector) StageSeconds() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.stages))
	for k, v := range c.stages {
		out[k] = v.Seconds()
	}
	return out
}

// StageOrder returns the stage names in first-seen order.
func (c *Collector) StageOrder() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// Counter returns the current total of one counter (zero when the counter
// has never been written). The serving layer polls individual counters —
// cache hits, completed jobs — without copying the whole map.
func (c *Collector) Counter(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[name]
}

// Counters returns a copy of the counter totals.
func (c *Collector) Counters() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.counters))
	for k, v := range c.counters {
		out[k] = v
	}
	return out
}

// Gauges returns a copy of the last-written gauge values.
func (c *Collector) Gauges() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.gauges))
	for k, v := range c.gauges {
		out[k] = v
	}
	return out
}
