package pq

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

func TestHeapSortsRandomInts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		in := make([]int, n)
		for i := range in {
			in[i] = rng.Intn(1000) - 500
		}
		var h Heap[int]
		for _, v := range in {
			h.Push(float64(v), v)
		}
		want := append([]int(nil), in...)
		sort.Ints(want)
		for i, w := range want {
			if h.Len() != n-i {
				t.Fatalf("Len = %d, want %d", h.Len(), n-i)
			}
			if got := h.Pop(); got != w {
				t.Fatalf("trial %d: pop %d = %d, want %d", trial, i, got, w)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("Len after drain = %d", h.Len())
		}
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	var h Heap[int]
	h.Push(5, 5)
	h.Push(1, 1)
	h.Push(3, 3)
	if got := h.Pop(); got != 1 {
		t.Fatalf("pop = %d, want 1", got)
	}
	h.Push(0, 0)
	h.Push(4, 4)
	for _, want := range []int{0, 3, 4, 5} {
		if got := h.Pop(); got != want {
			t.Fatalf("pop = %d, want %d", got, want)
		}
	}
}

func TestHeapStructElements(t *testing.T) {
	type item struct {
		net, length int
	}
	// Longest first: a max-heap is a min-heap over negated keys.
	var h Heap[item]
	for _, it := range []item{{net: 0, length: 2}, {net: 1, length: 7}, {net: 2, length: 4}} {
		h.Push(-float64(it.length), it)
	}
	for _, want := range []int{1, 2, 0} {
		if got := h.Pop(); got.net != want {
			t.Fatalf("pop net = %d, want %d", got.net, want)
		}
	}
}

// refHeap is the container/heap reference: keyed payloads ordered by key
// alone, so equal keys exercise the sift order.
type refHeap []entry[int]

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(entry[int])) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestHeapMatchesContainerHeap pushes and pops one randomized interleaving
// through Heap and through container/heap and requires the identical payload
// sequence. Keys come from a handful of values, so most pops break a tie:
// the sift order is the contract byte-identical guides depend on, not just
// the key order.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := []float64{-1, 0, 0.5, 2, 3.25}
	for trial := 0; trial < 200; trial++ {
		var h Heap[int]
		ref := &refHeap{}
		next := 0
		ops := 1 + rng.Intn(400)
		for op := 0; op < ops; op++ {
			if h.Len() != ref.Len() {
				t.Fatalf("trial %d op %d: Len %d, reference %d", trial, op, h.Len(), ref.Len())
			}
			if h.Len() == 0 || rng.Intn(3) > 0 {
				k := keys[rng.Intn(len(keys))]
				h.Push(k, next)
				heap.Push(ref, entry[int]{key: k, v: next})
				next++
				continue
			}
			got, want := h.Pop(), heap.Pop(ref).(entry[int]).v
			if got != want {
				t.Fatalf("trial %d op %d: pop %d, container/heap pops %d", trial, op, got, want)
			}
		}
		for h.Len() > 0 {
			if got, want := h.Pop(), heap.Pop(ref).(entry[int]).v; got != want {
				t.Fatalf("trial %d drain: pop %d, container/heap pops %d", trial, got, want)
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: reference holds %d after drain", trial, ref.Len())
		}
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	var h Heap[int]
	for i := 0; i < 64; i++ {
		h.Push(float64(i), i)
	}
	c := cap(h.data)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d", h.Len())
	}
	if cap(h.data) != c {
		t.Fatalf("Reset dropped capacity: %d -> %d", c, cap(h.data))
	}
}

func TestPushPopNoAllocsAfterWarmup(t *testing.T) {
	var h Heap[int]
	// AllocsPerRun's untimed first call is the warm-up that grows the
	// backing array.
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 512; i++ {
			h.Push(float64(512-i), i)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("push/pop allocated %.1f allocs/run, want 0", allocs)
	}
}
