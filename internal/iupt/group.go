package iupt

import (
	"context"
	"slices"
	"sync"
)

// Grouping a window's records into per-object positioning sequences — the
// Window paper Algorithms 2-4 start from — is the whole of a cold window's
// materialization, so it allocates what it keeps, once, at its final size. A
// count pass finds every object's sequence length; the objects are sorted
// once, so position i is the i-th smallest id; one []TimedSampleSet arena of
// exactly the window's record count is carved into the sequences in position
// order; a fill pass walks the records in canonical (T, arrival) order and
// writes each into the next free slot of its object's sequence, so every
// sequence comes out in canonical order, as a per-object append would have
// built it. Every sequence is capped (cap == len): a consumer that appends to
// one — the incremental monitor does — copies it out instead of writing into
// its neighbour in the arena.
//
// The working state lives in a pooled grouper and is cleared before it goes
// back, so an idle pool pins no record of a window its caller has dropped.
//
// A window read once — by one query, then dropped — need not cost fresh
// memory at all: grouped into an Arena, the decoded sample sets, the
// []TimedSampleSet arena and the window's columns all reuse the buffers of an
// earlier such window, and go back to the pool together when the reader is
// done.

// Arena is the recycled memory of a window materialized for one reader
// (Table.Window's into). It holds one window at a time: materializing another
// into it reuses the buffers. Take one with NewArena and hand it back with
// Release once nothing reads the window any more.
type Arena struct {
	samples SampleSet        // decoded sealed sample sets
	sets    []TimedSampleSet // the sequences' backing array
	oids    []ObjectID
	seqs    []Sequence
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// NewArena returns an arena from the pool.
func NewArena() *Arena { return arenaPool.Get().(*Arena) }

// Release returns the arena to the pool: every window materialized into it is
// invalid from here on. The references into record sample sets are cleared
// first, so an idle pool pins no record.
func (a *Arena) Release() {
	clear(a.sets)
	clear(a.seqs)
	a.samples, a.sets, a.oids, a.seqs = a.samples[:0], a.sets[:0], a.oids[:0], a.seqs[:0]
	arenaPool.Put(a)
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
	buf []Record // the window's records when they are not the head's own

	slot  map[ObjectID]int32 // object → slot, in first-seen order
	oids  []ObjectID         // slot → object
	next  []int              // slot → record count, then next free arena index
	dense []int32            // record → its object's slot
}

var grouperPool = sync.Pool{New: func() any { return &grouper{slot: make(map[ObjectID]int32)} }}

func getGrouper() *grouper { return grouperPool.Get().(*grouper) }

// release clears every record reference the grouping left behind and returns
// the grouper to the pool. Slots past a slice's length are zero already:
// every earlier use was cleared at its own length.
func (g *grouper) release() {
	clear(g.buf)
	clear(g.slot)
	g.buf, g.oids, g.next, g.dense = g.buf[:0], g.oids[:0], g.next[:0], g.dense[:0]
	grouperPool.Put(g)
}

// group carves recs, given in canonical order, into a Window, in a's buffers
// or, without an arena, in fresh exact-size memory. A canceled ctx aborts the
// fill between record batches and returns ctx.Err().
func (g *grouper) group(ctx context.Context, recs []Record, a *Arena) (Window, error) {
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
	if a != nil {
		a.oids, a.seqs, a.sets = a.oids[:0], a.seqs[:0], a.sets[:0]
		oids, seqs, sets = &a.oids, &a.seqs, &a.sets
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
		if i&1023 == 0 && ctx.Err() != nil {
			return Window{}, ctx.Err()
		}
		s := g.dense[i]
		arena[g.next[s]] = TimedSampleSet{T: recs[i].T, Samples: recs[i].Samples}
		g.next[s]++
	}
	return w, nil
}

// GroupSequences groups records given in canonical order into a Window,
// exactly as Table.Window groups a window's records: objects ascending, one
// exact-size arena, every sequence capped. The sample sets are shared with
// recs, not copied. Like Table.Window's, the window is in fresh memory, or in
// into's recycled buffers.
func GroupSequences(recs []Record, into ...*Arena) Window {
	var a *Arena
	if len(into) > 0 {
		a = into[0]
	}
	g := getGrouper()
	defer g.release()
	w, _ := g.group(context.Background(), recs, a)
	return w
}
