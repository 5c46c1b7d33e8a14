package core

import (
	"tkplq/internal/indoor"
	"tkplq/internal/rtree"
)

// bfEntry is one element of the Best-First max-heap: an RQ entry (a group of
// query locations, or a single one at the leaf level), its join list of RC
// entries, and the flow upper bound derived from the join list's COUNT
// aggregates. flowDone marks a leaf whose concrete flow has been computed
// (the "null join list" state of Algorithm 4 line 23). Both trees are
// immutable and outlive the search, so the entry points into them; the list
// is carved from the search's arena (bfScratch.lists).
type bfEntry struct {
	ub       float64
	qEntry   *rtree.Entry[indoor.SLocID]
	list     []*rtree.Entry[int32] // RC items are object positions (rankIndex.oids)
	flowDone bool
	seq      int // FIFO tie-break for determinism
}

// before is the heap order. It is a max-heap on ub. Ties matter at the k
// boundary: when a confirmed flow equals a remaining upper bound, the
// unconfirmed entry must resolve first (its concrete flow could equal the tie
// and rank earlier), and confirmed ties must pop in ascending S-location
// order — otherwise the search confirms its k-th result by arrival order and
// diverges from the (flow desc, sloc asc) total order Naive and Nested-Loop
// rank by.
//
// The order is strict and total — seq is unique among unconfirmed entries, a
// location is confirmed once — so the pop sequence, and with it
// Stats.HeapPops, is a function of what was pushed and not of how the heap
// arranges its slice.
func (a *bfEntry) before(b *bfEntry) bool {
	if a.ub != b.ub {
		return a.ub > b.ub
	}
	if a.flowDone != b.flowDone {
		return !a.flowDone
	}
	if a.flowDone {
		return a.qEntry.Item() < b.qEntry.Item()
	}
	return a.seq < b.seq
}

// bfHeap is a binary heap ordered by before, typed so that a push boxes
// nothing: the slice is the search's own and is reused across searches.
type bfHeap []bfEntry

func (h *bfHeap) push(en bfEntry) {
	s := append(*h, en)
	*h = s
	// Sift up: parents move down into the hole until en fits.
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !en.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = en
}

// pop removes and returns the first entry in heap order. The vacated slot is
// zeroed, so slots past len never hold a pointer.
func (h *bfHeap) pop() bfEntry {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	s[n] = bfEntry{}
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	// Sift down: the earlier child moves up into the hole until last fits.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(&s[c]) {
			c = r
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}
