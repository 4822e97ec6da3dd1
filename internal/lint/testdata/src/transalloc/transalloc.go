// Package transalloc exercises the noalloc analyzer's call graph walk:
// allocating constructs in unannotated helpers reached from a
// //rdl:noalloc root through static call chains (direct calls,
// concrete-receiver methods, generic instantiations, once-bound local
// function values) are flagged with their call chain, dynamic call sites
// need an audited //rdl:allow noalloc, and the walk stops at callees
// that carry their own annotation.
package transalloc

type buf struct {
	items []int
	grow  func(n int) []int
}

// leafAlloc and midCall are unannotated helpers: their allocations are
// findings only because a root reaches them.

func leafAlloc(n int) []int {
	return make([]int, n) // FLAGGED once, under the first root in source order
}

func midCall(n int) []int {
	return leafAlloc(n)
}

// Root reaches leafAlloc through a two-hop static chain.
//
//rdl:noalloc
func Root(n int) []int {
	return midCall(n)
}

// fill allocates inside a concrete-receiver method chain.
func (b *buf) fill(n int) {
	b.data(make([]int, n)) // FLAGGED
}

func (b *buf) data(v []int) { b.items = append(b.items, v...) }

//rdl:noalloc
func (b *buf) Refill(n int) {
	b.fill(n)
}

// GrowDyn calls through a func-typed field: unresolvable statically, so
// the site needs an audited allow.
//
//rdl:noalloc
func (b *buf) GrowDyn(n int) {
	b.items = b.grow(n) // FLAGGED: call through func-typed field
}

//rdl:noalloc
func (b *buf) GrowDynAllowed(n int) {
	//rdl:allow noalloc grow is bound once at construction to a resizer that reslices a preallocated arena
	b.items = b.grow(n) // SUPPRESSED
}

type sizer interface{ size() int }

func viaIface(s sizer) int {
	return s.size() // FLAGGED: interface method call on a noalloc path
}

//rdl:noalloc
func RootIface(s sizer) int {
	return viaIface(s)
}

// annotatedLeaf carries its own //rdl:noalloc: the walk from RootStops
// ends at it, and its make is reported once, as a root of its own.
//
//rdl:noalloc
func annotatedLeaf(n int) []int {
	return make([]int, n) // FLAGGED as a root, without a chain
}

//rdl:noalloc
func RootStops(n int) []int {
	return annotatedLeaf(n)
}

func leafAlloc2(n int) []int {
	return make([]int, n) // FLAGGED via the once-bound local below
}

// RootBound binds a local variable to a function exactly once; the call
// through it resolves statically.
//
//rdl:noalloc
func RootBound(n int) []int {
	f := leafAlloc2
	return f(n)
}

// RootReassigned rebinds the variable, so the call is dynamic.
//
//rdl:noalloc
func RootReassigned(n int, flip bool) []int {
	f := leafAlloc
	if flip {
		f = leafAlloc2
	}
	return f(n) // FLAGGED: call through a reassigned func value
}

func genAlloc[T any](n int) []T {
	return make([]T, n) // FLAGGED: generic instantiations fold onto this declaration
}

//rdl:noalloc
func RootGeneric(n int) []int {
	return genAlloc[int](n)
}
