package iupt

import (
	"slices"
	"sync"
)

// Grouping a window's records into per-object positioning sequences — the
// Window paper Algorithms 2-4 start from — allocates what it keeps, once, at
// its final size. A count pass finds every object's sequence length; the
// objects are sorted once, so position i is the i-th smallest id; one
// []TimedSampleSet arena of exactly the window's record count is carved into
// the sequences in position order; a fill pass walks the records in
// canonical (T, arrival) order and writes each into the next free slot of its
// object's sequence, so every sequence comes out in canonical order, as a
// per-object append would have built it. Every sequence is capped (cap ==
// len): a consumer that appends to one — the incremental monitor does —
// copies it out instead of writing into its neighbour in the arena.
//
// The working state lives in a pooled grouper, which holds object ids and
// counts, never a record.

// Arena is recycled memory a window is grouped into, for a reader that drops
// the window after one use (internal/core's private windows): the grouping
// carves its columns and its sequences' backing array from the tail of these
// buffers (Carve), and the owner clears and truncates them when nothing reads
// the window any more.
type Arena struct {
	OIDs []ObjectID
	Seqs []Sequence
	Sets []TimedSampleSet
}

// Carve returns n elements from the tail of *buf, extending it. A short
// array is replaced by a larger one and nothing is copied — what was carved
// keeps the old array alive until the owner's release — so a recycled buffer
// soon holds an array that fits a whole window or evaluation. With buf nil —
// memory someone keeps — it is a fresh exact-size slice. The capacity is
// clipped to n, so an append to the result copies out instead of
// overwriting its neighbor.
func Carve[S ~[]E, E any](buf *S, n int) S {
	if buf == nil {
		return make(S, n)
	}
	at := len(*buf)
	if cap(*buf)-at < n {
		*buf, at = make(S, 0, max(2*cap(*buf), n, 64)), 0
	}
	*buf = (*buf)[:at+n]
	return (*buf)[at : at+n : at+n]
}

// grouper is the reusable working memory of one grouping.
type grouper struct {
	slot  map[ObjectID]int32 // object → slot, in first-seen order
	oids  []ObjectID         // slot → object
	next  []int              // slot → record count, then next free arena index
	dense []int32            // record → its object's slot
}

var grouperPool = sync.Pool{New: func() any { return &grouper{slot: make(map[ObjectID]int32)} }}

// GroupSequences groups records given in canonical order into a Window:
// objects ascending, one exact-size arena, every sequence capped. The sample
// sets are shared with recs, not copied. The window is in fresh memory, or
// carved from into's recycled buffers.
func GroupSequences(recs []Record, into ...*Arena) Window {
	g := grouperPool.Get().(*grouper)
	defer func() {
		clear(g.slot)
		g.oids, g.next, g.dense = g.oids[:0], g.next[:0], g.dense[:0]
		grouperPool.Put(g)
	}()
	// Count pass: a sequence's length is order-free.
	for i := range recs {
		s, ok := g.slot[recs[i].OID]
		if !ok {
			s = int32(len(g.oids))
			g.slot[recs[i].OID] = s
			g.oids = append(g.oids, recs[i].OID)
			g.next = append(g.next, 0)
		}
		g.next[s]++
		g.dense = append(g.dense, s)
	}
	// Slots are numbered in first-seen order; positions ascend by id.
	var oids *[]ObjectID
	var seqs *[]Sequence
	var sets *[]TimedSampleSet
	if len(into) > 0 {
		oids, seqs, sets = &into[0].OIDs, &into[0].Seqs, &into[0].Sets
	}
	w := Window{OIDs: Carve(oids, len(g.oids)), Seqs: Carve(seqs, len(g.oids))}
	copy(w.OIDs, g.oids)
	slices.Sort(w.OIDs)
	arena := Carve(sets, len(recs))
	off := 0
	for i, oid := range w.OIDs {
		s := g.slot[oid]
		n := g.next[s]
		w.Seqs[i] = arena[off : off+n : off+n]
		g.next[s] = off
		off += n
	}
	// Fill pass, in canonical order.
	for i := range recs {
		s := g.dense[i]
		arena[g.next[s]] = TimedSampleSet{T: recs[i].T, Samples: recs[i].Samples}
		g.next[s]++
	}
	return w
}
