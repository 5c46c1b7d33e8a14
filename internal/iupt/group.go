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

// grouper is the reusable working memory of one grouping.
type grouper struct {
	buf  []Record   // sealed runs, decoded back to back
	ends []int      // end offset in buf of each decoded run
	runs [][]Record // the runs in arrival order: sealed parts, then the head
	base []int      // per run: index of its first record among all runs
	pos  []int      // per run: merge cursor

	slot  map[ObjectID]int32 // object → slot, in first-seen order
	oids  []ObjectID         // slot → object
	next  []int              // slot → record count, then next free arena index
	dense []int32            // record (runs concatenated) → its object's slot
}

var grouperPool = sync.Pool{New: func() any { return &grouper{slot: make(map[ObjectID]int32)} }}

func getGrouper() *grouper { return grouperPool.Get().(*grouper) }

// release clears every record reference the grouping left behind and returns
// the grouper to the pool. Slots past a slice's length are zero already:
// every earlier use was cleared at its own length.
func (g *grouper) release() {
	g.reset()
	grouperPool.Put(g)
}

func (g *grouper) reset() {
	clear(g.buf)
	clear(g.runs)
	clear(g.slot)
	g.buf, g.ends, g.runs, g.base, g.pos = g.buf[:0], g.ends[:0], g.runs[:0], g.base[:0], g.pos[:0]
	g.oids, g.next, g.dense = g.oids[:0], g.next[:0], g.dense[:0]
}

// total returns the number of records in the runs.
func (g *grouper) total() int {
	n := len(g.runs)
	if n == 0 {
		return 0
	}
	return g.base[n-1] + len(g.runs[n-1])
}

func (g *grouper) addRun(run []Record) {
	if len(run) == 0 {
		return
	}
	g.base = append(g.base, g.total())
	g.runs = append(g.runs, run)
	g.pos = append(g.pos, 0)
}

// gather collects the records of [ts, te] as runs in arrival order: only
// parts whose span overlaps the window contribute (non-overlapping parts are
// never read — the property the partition-pruning tests assert), each its
// overlap found by binary search and decoded into buf, then the head's.
func (g *grouper) gather(head []Record, sealed []SealedPart, ts, te Time) {
	if te < ts {
		return
	}
	for _, p := range sealed {
		if lo, hi := p.Span(); hi < ts || lo > te {
			continue
		}
		g.buf = p.AppendRange(g.buf, ts, te)
		g.ends = append(g.ends, len(g.buf))
	}
	// Slice buf only once it has stopped growing.
	start := 0
	for _, end := range g.ends {
		g.addRun(g.buf[start:end])
		start = end
	}
	g.addRun(rangeSubslice(head, ts, te))
}

// pop returns the next record of the runs' k-way merge in canonical
// (T, arrival) order and its index among the runs concatenated; rec is nil
// once every run is spent. Timestamp ties go to the earlier run, which is
// the earlier arrival: runs are in seal order, head last. K is the number of
// overlapping parts (+ head), which is small; a linear scan per record beats
// heap bookkeeping here.
func (g *grouper) pop() (rec *Record, at int) {
	best := -1
	var bestT Time
	for r, run := range g.runs {
		// Strict < keeps the earliest source on ties.
		if i := g.pos[r]; i < len(run) && (best == -1 || run[i].T < bestT) {
			best, bestT = r, run[i].T
		}
	}
	if best < 0 {
		return nil, 0
	}
	i := g.pos[best]
	g.pos[best]++
	return &g.runs[best][i], g.base[best] + i
}

// group carves the gathered runs into a Window. A canceled ctx aborts the fill
// between record batches and returns ctx.Err().
func (g *grouper) group(ctx context.Context) (Window, error) {
	// Count pass, in any order: a sequence's length is order-free.
	for _, run := range g.runs {
		for i := range run {
			s, ok := g.slot[run[i].OID]
			if !ok {
				s = int32(len(g.oids))
				g.slot[run[i].OID] = s
				g.oids = append(g.oids, run[i].OID)
				g.next = append(g.next, 0)
			}
			g.next[s]++
			g.dense = append(g.dense, s)
		}
	}
	// Slots are numbered in first-seen order; positions ascend by id.
	w := Window{OIDs: slices.Clone(g.oids), Seqs: make([]Sequence, len(g.oids))}
	slices.Sort(w.OIDs)
	arena := make([]TimedSampleSet, len(g.dense))
	off := 0
	for i, oid := range w.OIDs {
		s := g.slot[oid]
		n := g.next[s]
		w.Seqs[i] = arena[off : off+n : off+n]
		g.next[s] = off
		off += n
	}
	// Fill pass, in canonical order.
	for n := 0; ; n++ {
		if n&1023 == 0 && ctx.Err() != nil {
			return Window{}, ctx.Err()
		}
		rec, at := g.pop()
		if rec == nil {
			return w, nil
		}
		s := g.dense[at]
		arena[g.next[s]] = TimedSampleSet{T: rec.T, Samples: rec.Samples}
		g.next[s]++
	}
}

// GroupSequences groups records given in canonical order into a Window,
// exactly as Table.Window groups a window's records: objects ascending, one
// exact-size arena, every sequence capped. The sample sets are shared with
// recs, not copied.
func GroupSequences(recs []Record) Window {
	g := getGrouper()
	defer g.release()
	g.addRun(recs)
	w, _ := g.group(context.Background())
	return w
}
