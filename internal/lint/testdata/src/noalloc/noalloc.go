// Package noalloc exercises the noalloc analyzer's rules: allocating
// constructs in //rdl:noalloc functions are flagged; the reuse idioms,
// heap addresses, plain-valued library calls and unreached functions are
// clean; and acknowledged sites are suppressed. The call graph walk into
// unannotated helpers has its own fixture, testdata/src/transalloc.
package noalloc

import (
	"errors"
	"math"
)

type sink interface{ accept(any) }

type buf struct {
	items []int
	arr   [4]int
}

// keep has a pointer receiver: calling it on a local value takes the
// value's address.
func (b *buf) keep() int { return len(b.items) }

func (b buf) size() int { return len(b.items) }

type boxed struct{ v any }

var (
	sinkPtr  *int
	sinkFn   func() int
	sinkAny  any
	sinkAnys []any
)

// The fifteen kinds of allocation a reader could plausibly add to a hot
// path, one function each. FLAGGED.

//rdl:noalloc
func kindMake(n int) []int {
	return make([]int, n)
}

//rdl:noalloc
func kindAppend(b *buf, v int) []int {
	fresh := append(b.items, v)
	return fresh
}

//rdl:noalloc
func kindSelfappend(v int) []int {
	var fresh []int
	fresh = append(fresh, v)
	return fresh
}

//rdl:noalloc
func kindClosure(n int) {
	sinkFn = func() int { return n }
}

//rdl:noalloc
func kindBoxing(v int) {
	sinkAny = v
}

//rdl:noalloc
func kindConcat(a, b string) string {
	return a + b
}

//rdl:noalloc
func kindHeapvar(n int) {
	local := [2]int{n, n}
	sinkPtr = &local[0]
}

//rdl:noalloc
func kindClone(b *buf, v int) []int {
	out := append(b.items[:0:0], v)
	return out
}

//rdl:noalloc
func kindMethodval(b buf) {
	sinkFn = b.size
}

//rdl:noalloc
func kindStdlib(msg string) error {
	return errors.New(msg)
}

//rdl:noalloc
func kindVardecl(v int) {
	var i any = v
	sinkAny = i
}

//rdl:noalloc
func kindLitbox(v int) boxed {
	return boxed{v: v}
}

//rdl:noalloc
func kindAppendbox(v int) {
	sinkAnys = append(sinkAnys[:0], v)
}

//rdl:noalloc
func kindPtrmethod() int {
	var b buf
	return b.keep()
}

//rdl:noalloc
func kindRunestr(n int) string {
	return string(rune(n))
}

// stackShapes takes the address of a parameter and of a local's field,
// and slices a local array. FLAGGED.
//
//rdl:noalloc
func stackShapes(n int, b buf) int {
	sinkPtr = &n
	sinkPtr = &b.arr[1]
	return len(b.arr[:])
}

// emptyLocals self-appends onto locals that start empty: declared nil,
// converted from nil, and set to nil after a reuse start. FLAGGED.
//
//rdl:noalloc
func emptyLocals(b *buf, v int) int {
	var s []int = nil
	s = append(s, v)
	t := []int(nil)
	t = append(t, v)
	u := b.items[:0]
	u = nil
	u = append(u, v)
	return len(s) + len(t) + len(u)
}

// boxSites boxes at a call argument, an array-literal element, a channel
// send, a map key and a return. FLAGGED.
//
//rdl:noalloc
func boxSites(s sink, v int, ch chan any, m map[any]int, arr *[2]any) any {
	s.accept(v)
	*arr = [2]any{v, v}
	ch <- v
	_ = m[v]
	return v
}

// literals allocates through new, slice and map literals, an escaping
// composite literal and a []byte conversion. FLAGGED.
//
//rdl:noalloc
func literals(s string) *buf {
	_ = new(int)
	_ = []int{1}
	_ = map[int]int{}
	_ = []byte(s)
	return &buf{}
}

// hot follows the two reuse idioms, on a field, on a local that starts
// from a reused buffer and on a parameter. CLEAN.
//
//rdl:noalloc
func hot(b *buf, v int, p []int) []int {
	b.items = append(b.items, v)
	b.items = append(b.items[:0], v)
	s := b.items[:0]
	s = append(s, v)
	b.items = s
	p = append(p, v)
	return p
}

// heapAddrs takes addresses of memory reached through a pointer or a
// slice and calls a pointer method through a pointer. CLEAN.
//
//rdl:noalloc
func heapAddrs(b *buf) int {
	sinkPtr = &b.items[0]
	return count(&b.arr[0]) + len(b.arr[:]) + b.keep()
}

func count(p *int) int { return *p }

// plainCalls calls a library function returning a float, a value method
// and a method expression, stores interfaces into interfaces and converts
// a constant rune. CLEAN.
//
//rdl:noalloc
func plainCalls(b buf, ch chan any) (float64, string) {
	var i any = sinkAny
	ch <- i
	return math.Sqrt(float64(b.size() + buf.size(b))), string(rune('a'))
}

// cold carries no annotation and no root reaches it. CLEAN.
func cold(n int) []int {
	return make([]int, n)
}

// allowed acknowledges one site of each rule that has an audited reason.
// SUPPRESSED.
//
//rdl:noalloc
func allowed(b *buf, n int, failed bool) error {
	//rdl:allow noalloc count does not keep the pointer, so n stays on the stack
	_ = count(&n)
	//rdl:allow noalloc bound once per run, never per call
	sinkFn = b.keep
	//rdl:allow noalloc a fresh clone is the result the caller keeps
	b.items = append(b.items[:0:0], n)
	var found []int
	//rdl:allow noalloc the findings are the result the caller keeps, built only when there is one
	found = append(found, n)
	b.items = found
	//rdl:allow noalloc debug label built only when tracing
	_ = string(rune(n))
	if failed {
		//rdl:allow noalloc failure path only: the error is built after the work is lost
		return errors.New("failed")
	}
	return nil
}

// seed's one-time setup allocation is acknowledged. SUPPRESSED.
//
//rdl:noalloc
func seed(n int) *buf {
	//rdl:allow noalloc one-time setup allocation, measured and budgeted
	return &buf{items: make([]int, 0, n)}
}
