// Package pq provides a typed binary min-heap keyed by float64. It replaces
// container/heap on the routing hot paths: container/heap moves elements
// through interface{} values, so every Push and Pop of a non-pointer element
// allocates to box it, and a func-valued comparator costs an indirect call
// per sift step. Heap[T] stores each payload beside its key in a flat slice
// and compares the keys inline — Push amortizes to zero allocations (slice
// growth only) and Pop never allocates — and Reset keeps the backing array
// so one heap can be reused across many searches.
//
// The sift steps mirror container/heap's exactly, so a Heap pops the same
// payload sequence, ties included, as container/heap over the same
// interleaving of pushes and pops with a "key < key" Less. A max-heap is a
// min-heap over negated keys.
package pq

// entry is one heap element: the ordering key stored beside its payload.
type entry[T any] struct {
	key float64
	v   T
}

// Heap is a binary min-heap of T payloads ordered by their float64 keys.
// The zero value is an empty heap ready to use.
type Heap[T any] struct {
	data []entry[T]
}

// Len returns the number of elements in the heap.
func (h *Heap[T]) Len() int { return len(h.data) }

// Reset empties the heap but keeps the backing array for reuse.
func (h *Heap[T]) Reset() {
	clear(h.data) // release references held by pointer-carrying payloads
	h.data = h.data[:0]
}

// Push adds v with the given key.
//
//rdl:noalloc
func (h *Heap[T]) Push(key float64, v T) {
	h.data = append(h.data, entry[T]{key: key, v: v})
	h.up(len(h.data) - 1)
}

// Pop removes and returns the payload with the smallest key. It panics on
// an empty heap.
//
//rdl:noalloc
func (h *Heap[T]) Pop() T {
	n := len(h.data) - 1
	top := h.data[0].v
	h.data[0] = h.data[n]
	h.data[n] = entry[T]{}
	h.data = h.data[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

//rdl:noalloc
func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !(h.data[i].key < h.data[parent].key) {
			return
		}
		h.data[i], h.data[parent] = h.data[parent], h.data[i]
		i = parent
	}
}

//rdl:noalloc
func (h *Heap[T]) down(i int) {
	n := len(h.data)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.data[r].key < h.data[l].key {
			m = r
		}
		if !(h.data[m].key < h.data[i].key) {
			return
		}
		h.data[i], h.data[m] = h.data[m], h.data[i]
		i = m
	}
}
