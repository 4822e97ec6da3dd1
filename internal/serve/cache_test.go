package serve

import (
	"encoding/json"
	"testing"

	"rdlroute/internal/global"
	"rdlroute/internal/router"
)

func out(n int) *router.Output {
	o := &router.Output{}
	o.Metrics.TotalNets = n
	return o
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2)
	if c.put("a", out(1)) != 0 || c.put("b", out(2)) != 0 {
		t.Fatal("filling to capacity must not evict")
	}
	// Touch "a" so "b" is the eviction victim.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	if ev := c.put("c", out(3)); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted (least recently used)")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s should still be cached", k)
		}
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func TestCacheOverwriteSameKey(t *testing.T) {
	c := newCache(2)
	c.put("a", out(1))
	if ev := c.put("a", out(9)); ev != 0 {
		t.Fatalf("overwrite evicted %d entries", ev)
	}
	got, ok := c.get("a")
	if !ok || got.Metrics.TotalNets != 9 {
		t.Errorf("overwrite lost: %+v %v", got, ok)
	}
	if c.len() != 1 {
		t.Errorf("len = %d, want 1", c.len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newCache(-1)
	if ev := c.put("a", out(1)); ev != 0 {
		t.Fatalf("disabled put evicted %d", ev)
	}
	if _, ok := c.get("a"); ok {
		t.Error("disabled cache must always miss")
	}
}

func TestQueuePriorityAndBounds(t *testing.T) {
	q := newQueue(3)
	mk := func(p Priority) *Job {
		return &Job{priority: p, state: StateQueued, d: testDesign(0)}
	}
	if err := q.push(mk(Low)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mk(High)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mk(Normal)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mk(Normal)); err != ErrQueueFull {
		t.Fatalf("push over capacity = %v, want ErrQueueFull", err)
	}
	want := []Priority{High, Normal, Low}
	for i, p := range want {
		j, ok := q.pop()
		if !ok || j.priority != p {
			t.Fatalf("pop %d: priority %v ok=%v, want %v", i, j.priority, ok, p)
		}
	}
	q.close()
	if _, ok := q.pop(); ok {
		t.Error("pop after close+drain must report ok=false")
	}
	if err := q.push(mk(Normal)); err != ErrDraining {
		t.Errorf("push after close = %v, want ErrDraining", err)
	}
}

func TestKeyStability(t *testing.T) {
	encode := func(o router.Options) []byte {
		t.Helper()
		b, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	opt := encode(router.Options{})
	k1, err := Key(testDesign(1), opt)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(testDesign(1), opt)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("equal requests produced different keys")
	}
	if len(k1) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(k1))
	}

	k3, err := Key(testDesign(2), opt)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("different designs produced the same key")
	}

	k4, err := Key(testDesign(1), encode(router.Options{Global: global.Options{MaxOrderRounds: 10}}))
	if err != nil {
		t.Fatal(err)
	}
	if k4 == k1 {
		t.Error("different options produced the same key")
	}
}
