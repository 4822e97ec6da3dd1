package global

import (
	"slices"

	"rdlroute/internal/rgraph"
)

// Cross-round search reuse.
//
// Net-order adjustment (§III-A3c) rips up every guide after a failed round
// and routes all nets again in the new order, yet most nets then find the
// guide they found before. The round loop therefore skips a net's A* search
// when nothing the search read has changed since the net was last searched,
// and commits the stored guide (or records the stored failure) instead.
//
// Each search records the set of nodes it read (searchScratch.noteRead).
// The loop keeps the ordered commit log of the round in flight and of the
// round before, one (net, guide version) entry per commit. reusable decides
// a net from the two logs and the footprints their guides leave on the
// net's read set; its comment holds the exactness argument.

// logEntry is one commit of a round: the net and its guide version.
type logEntry struct{ net, version int32 }

// netMemo is what the round loop remembers of a net between rounds.
type netMemo struct {
	// turn is the length of the previous round's commit log when the net had
	// its turn there, whether it was searched, reused or failed; -1 before
	// its first turn.
	turn int32
	// version counts the guide changes of the net: it moves whenever a
	// committed guide differs from the net's previous one in its nodes,
	// links or gaps (0 before the first), so (net, version) names one guide.
	version int32
	// failed reports that the net's last search found no guide.
	failed bool
	// expansions is the cost of the net's last search, which a reuse saves.
	expansions int
	// guide is the net's guide of the current version and prev that of the
	// version before; remember swaps them when the version moves. Their
	// nodes and links are shared with the Guides committed from them: once
	// the rip-up releases a Guide, a reuse hands them to the next one. Each
	// keeps its own copy of the gaps, because a search's gaps alias scratch
	// storage.
	guide, prev searchResult
}

// reuseState is the round loop's memo. Run sizes it once, before the first
// round, and drops it when the loop ends.
type reuseState struct {
	nets []netMemo
	// words is the length of one read set, one bit per node; read holds the
	// read sets of the nets' last searches, words per net.
	words int
	read  []uint64
	// prev and cur are the commit logs of the previous round and of the
	// round in flight.
	prev, cur []logEntry
	// prevValid reports that the previous round started from an empty
	// board, so its log describes every state its searches read.
	prevValid, curValid bool
	// reused counts the round's reused searches and reusedExpansions the
	// expansions they did not run.
	reused, reusedExpansions int
}

func newReuseState(nNets, nNodes int) *reuseState {
	words := (nNodes + 63) / 64
	rs := &reuseState{
		nets:  make([]netMemo, nNets),
		words: words,
		read:  make([]uint64, nNets*words),
		prev:  make([]logEntry, 0, nNets),
		cur:   make([]logEntry, 0, nNets),
	}
	for i := range rs.nets {
		rs.nets[i].turn = -1
	}
	return rs
}

// beginRound makes the round that just ended the reference and empties the
// log for the next. empty reports that the board holds no guide.
func (rs *reuseState) beginRound(empty bool) {
	rs.prev, rs.cur = rs.cur, rs.prev[:0]
	rs.prevValid, rs.curValid = rs.curValid, empty
	rs.reused, rs.reusedExpansions = 0, 0
}

// readSet returns the read set of net ni's last search.
//
//rdl:noalloc
func (rs *reuseState) readSet(ni int) []uint64 {
	return rs.read[ni*rs.words : (ni+1)*rs.words]
}

// marked reports whether node id is in the read set.
//
//rdl:noalloc
func marked(read []uint64, id rgraph.NodeID) bool {
	return read[id>>6]&(1<<(uint(id)&63)) != 0
}

// nextMarked returns the index of the first of nodes[i:] in the read set,
// or len(nodes).
//
//rdl:noalloc
func nextMarked(read []uint64, nodes []rgraph.NodeID, i int) int {
	for i < len(nodes) && !marked(read, nodes[i]) {
		i++
	}
	return i
}

// linkAt returns links[i], or -1 past either end of the path.
//
//rdl:noalloc
func linkAt(links []int, i int) int {
	if i < 0 || i >= len(links) {
		return -1
	}
	return links[i]
}

// sameFootprint reports whether guides a and b leave the same footprint on
// the read set: the same marked nodes in the same order, each with the same
// gap and the same links into and out of it.
//
//rdl:noalloc
func sameFootprint(read []uint64, a, b *searchResult) bool {
	i, j := nextMarked(read, a.nodes, 0), nextMarked(read, b.nodes, 0)
	for i < len(a.nodes) && j < len(b.nodes) {
		if a.nodes[i] != b.nodes[j] || a.gaps[i] != b.gaps[j] ||
			linkAt(a.links, i-1) != linkAt(b.links, j-1) || linkAt(a.links, i) != linkAt(b.links, j) {
			return false
		}
		i, j = nextMarked(read, a.nodes, i+1), nextMarked(read, b.nodes, j+1)
	}
	return i == len(a.nodes) && j == len(b.nodes)
}

// guideOf returns the guide a log entry committed. A net commits at most
// once per round, so the two logs name only its current and previous
// versions.
//
//rdl:noalloc
func (rs *reuseState) guideOf(e logEntry) *searchResult {
	m := &rs.nets[e.net]
	if e.version == m.version {
		return &m.guide
	}
	return &m.prev
}

// touches reports whether the guide of log entry e has a node in the read
// set.
//
//rdl:noalloc
func (rs *reuseState) touches(read []uint64, e logEntry) bool {
	nodes := rs.guideOf(e).nodes
	return nextMarked(read, nodes, 0) < len(nodes)
}

// reusable reports whether net ni's last search would return the same
// result if it ran now, on the board its predecessors of this round
// committed.
//
// The answer is exact. A round starts from an empty board, and inside the
// round loop router state changes only through commit (capOverride changes
// only in refinement, after the loop). So the state at a net's turn is fixed
// by the ordered list of guides committed before it.
//
// A search reads the usage, capacity and sequence of nodes in its read set,
// the usage of the links at the nodes it expanded, and the passages of the
// tiles it resolves; noteRead marks every node it expands, all their
// neighbours, and all three edge nodes of every tile it resolves. A commit
// writes usage and sequences at its guide's nodes, usage at its links, and
// passages in the tiles of its links. Every access-via and cross-tile link
// has an edge-node end in its tile, so a passage the search reads is written
// through a link into or out of a marked node, and so is the usage of a link
// at an expanded node. Only commits whose guides touch the read set
// therefore write what the search reads, and they write it only through
// their footprint there: the marked nodes in order, each with its gap and
// its links into and out of it.
//
// Suppose the commits of this round whose guides touch the read set are the
// same nets, in the same order, as those that touched it before the net's
// turn in the previous round, and each pair has the same guide version or
// the same footprint on the set. Both lists then made the same writes on the
// set in the same order, starting from an empty board, so every value the
// search reads is what it was then. The search is deterministic: it would
// expand the same states, read the same values and return the same result.
// When the net was itself reused in the previous round, the same equality
// held there, so the chain reaches back to the search that recorded the set.
//
//rdl:noalloc
func (rs *reuseState) reusable(ni int) bool {
	m := &rs.nets[ni]
	if !rs.prevValid || m.turn < 0 {
		return false
	}
	read := rs.readSet(ni)
	prev := rs.prev[:m.turn]
	j := 0
	for _, ce := range rs.cur {
		if !rs.touches(read, ce) {
			continue
		}
		for j < len(prev) && !rs.touches(read, prev[j]) {
			j++
		}
		if j == len(prev) || prev[j].net != ce.net {
			return false
		}
		if prev[j].version != ce.version && !sameFootprint(read, rs.guideOf(prev[j]), rs.guideOf(ce)) {
			return false
		}
		j++
	}
	for ; j < len(prev); j++ {
		if rs.touches(read, prev[j]) {
			return false
		}
	}
	return true
}

// recall returns net ni's stored guide, or nil for a stored failure.
//
//rdl:noalloc
func (rs *reuseState) recall(ni int) *searchResult {
	m := &rs.nets[ni]
	rs.reused++
	rs.reusedExpansions += m.expansions
	if !m.failed {
		return &m.guide
	}
	return nil
}

// remember stores the outcome of a search of net ni that just ran on sc:
// its read set, its expansions and g, the guide found, or nil for a
// failure. It returns the stored guide, or nil.
func (rs *reuseState) remember(ni int, sc *searchScratch, g *searchResult) *searchResult {
	copy(rs.readSet(ni), sc.read)
	m := &rs.nets[ni]
	m.expansions = sc.expansions
	m.failed = g == nil
	if g == nil {
		return nil
	}
	if !slices.Equal(m.guide.nodes, g.nodes) || !slices.Equal(m.guide.links, g.links) || !slices.Equal(m.guide.gaps, g.gaps) {
		m.version++
		m.guide, m.prev = m.prev, m.guide
	}
	s := &m.guide
	s.net, s.nodes, s.links = g.net, g.nodes, g.links
	s.gaps = append(s.gaps[:0], g.gaps...)
	return s
}

// noteTurn records that net ni takes its turn now, before its commit.
//
//rdl:noalloc
func (rs *reuseState) noteTurn(ni int) {
	rs.nets[ni].turn = int32(len(rs.cur))
}

// logCommit appends net ni's commit, its stored guide, to the round's log.
//
//rdl:noalloc
func (rs *reuseState) logCommit(ni int) {
	rs.cur = append(rs.cur, logEntry{net: int32(ni), version: rs.nets[ni].version})
}
