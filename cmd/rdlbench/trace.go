package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one bench-side span around a call into a layer. Times are
// nanoseconds since the tracer started. Parent is -1 for a root span.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Sample   int    `json:"sample"`
	Op       int    `json:"op"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer holds every span in memory until the run ends. Portfolio attempts
// open spans from several goroutines at once, hence the lock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// opTrace opens spans for one op: every span it opens carries the op's
// workload, sample index and op id.
type opTrace struct {
	t          *tracer
	workload   string
	sample, op int
}

func (o opTrace) start(name string, parent int) int {
	now := int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	id := len(o.t.spans)
	o.t.spans = append(o.t.spans, span{Name: name, Workload: o.workload, Sample: o.sample,
		Op: o.op, ID: id, Parent: parent, Start: now, End: now})
	return id
}

func (o opTrace) end(id int) {
	now := int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans[id].End = now
	o.t.mu.Unlock()
}

// since returns a copy of the spans opened from index first on.
func (t *tracer) since(first int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[first:]...)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children (concurrent
// portfolio attempts) count once. spans must hold every child of every span
// in it.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total int64
	end := parent.Start
	for _, c := range children {
		lo, hi := max(c.Start, end), min(c.End, parent.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return time.Duration(total)
}

// writeSpans writes every span as one JSON line, with its self time.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans := t.since(0)
	self := selfTimes(spans)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		line := struct {
			span
			Self int64 `json:"self_ns"`
		}{s, int64(self[s.ID])}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
