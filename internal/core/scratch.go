package core

import (
	"slices"
	"sync"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/rtree"
)

// summarizeScratch is the reusable per-worker scratch arena of the reduce →
// summarize hot path. One instance serves one goroutine at a time; the
// engine keeps a sync.Pool of them so steady-state evaluation of a warmed-up
// engine performs near-zero allocations per object. Everything in here is
// transient working memory — outputs that outlive a call (Reduction,
// ObjectSummary) are exactly sized, freshly allocated or carved from an
// output arena (outArena), and never alias scratch storage.
type summarizeScratch struct {
	// Eq.-1 walk state (dp.go): the segment's rows×m value matrix in
	// column-major blocks, stepped from cur into next, its rescale log, and
	// whether its mass died; the current step's valid pairs; the reachability
	// marks that decide a cut; and the tracked-cell interning, cell id ->
	// dense row, plus the reverse list in first-appearance order.
	cur, next        []float64
	rows             int
	logScale         float64
	dead             bool
	pairs            []stepPair
	reach, nextReach []bool
	cellRow          *indoor.IDMarks
	tracked          []indoor.CellID

	// Data reduction state (reduce.go): epoch-stamped seen-sets over the
	// space's dense cell/S-location/P-location id ranges, the collected
	// cell/PSL lists and reduced sequence (with each set's run length) before
	// their exact-size copies, the pending inter-merge run and the backing
	// store for its intra-merged sample sets.
	cellSeen *indoor.IDMarks
	slocSeen *indoor.IDMarks
	plocPos  *indoor.IDMarks
	cells    []indoor.CellID
	psls     []indoor.SLocID
	seq      []iupt.SampleSet
	runLens  []int32
	run      []iupt.SampleSet
	runBuf   []iupt.Sample

	// Slab build state (slab.go): the decoded records and their sample
	// sets, and the merged sets of one object before they join the slab.
	recs    []iupt.Record
	decoded iupt.SampleSet
	slabOut []iupt.Sample

	// Summary state (dp.go, presence.go): a segment's cell-sorted pass masses
	// before their exact-size copy, and the union's no-pass products, merged
	// segment by segment from one buffer into the other.
	masses           []CellMass
	union, unionNext []CellMass
}

func newSummarizeScratch() *summarizeScratch {
	return &summarizeScratch{
		cellRow:  &indoor.IDMarks{},
		cellSeen: &indoor.IDMarks{},
		slocSeen: &indoor.IDMarks{},
		plocPos:  &indoor.IDMarks{},
	}
}

// fit makes both matrices hold at least need values, keeping cur's first
// keep.
func (scr *summarizeScratch) fit(keep, need int) {
	if cap(scr.cur) < need {
		cur := make([]float64, 2*need)
		copy(cur, scr.cur[:keep])
		scr.cur, scr.next = cur, make([]float64, 2*need)
	}
}

// getScratch hands out a scratch arena from the engine's pool. Callers must
// return it with putScratch; per-shard workers hold one across all their
// objects, so pool traffic is per shard, not per object.
func (e *Engine) getScratch() *summarizeScratch {
	if s, ok := e.scratch.Get().(*summarizeScratch); ok {
		return s
	}
	return newSummarizeScratch()
}

func (e *Engine) putScratch(s *summarizeScratch) { e.scratch.Put(s) }

// bfScratch is the working memory of one Best-First search (bestfirst.go),
// pooled so that a search over a cached window allocates for its answer and
// little else. Everything in it is sized by the search that holds it and
// cleared of pointers before it goes back (putBFScratch): an idle pool pins no
// tree of a window the cache has since evicted.
type bfScratch struct {
	heap bfHeap
	seq  int // next bfEntry.seq

	// lists is the arena join lists are carved from, tail first; a list is
	// never freed before the search ends.
	lists []*rtree.Entry[int32]

	// The current location's candidates: a bitset over window positions.
	cand []uint64

	// oracle is the search's presence oracle, its columns reused.
	oracle presenceOracle
}

// getBFScratch hands out a cleared scratch for a search over objects object
// positions, from the engine's pool. The holder must return it with
// putBFScratch.
func (e *Engine) getBFScratch(objects int) *bfScratch {
	s, _ := e.bfScratch.Get().(*bfScratch)
	if s == nil {
		s = new(bfScratch)
	}
	words := (objects + 63) / 64
	s.cand = slices.Grow(s.cand[:0], words)[:words]
	return s
}

// putBFScratch clears every pointer the search left behind and returns the
// scratch to the pool. Slots past a slice's length are nil already: pop zeroes
// the slot it vacates, and the arena was cleared at its longest.
func (e *Engine) putBFScratch(s *bfScratch) {
	clear(s.heap)
	clear(s.lists)
	s.heap, s.lists, s.seq = s.heap[:0], s.lists[:0], 0
	o := &s.oracle
	clear(o.reductions)
	clear(o.summaries)
	*o = presenceOracle{reductions: o.reductions[:0], summaries: o.summaries[:0], pending: o.pending[:0]}
	e.bfScratch.Put(s)
}

func (s *bfScratch) push(en bfEntry) {
	en.seq = s.seq
	s.seq++
	s.heap.push(en)
}

// reserve returns an empty list with room for n entries at the arena's tail;
// commit keeps what was appended to it. When the arena is full a larger one
// replaces it — lists carved so far keep the old one alive until the search
// ends — so a pooled scratch soon holds one that fits a whole search.
func (s *bfScratch) reserve(n int) []*rtree.Entry[int32] {
	if cap(s.lists)-len(s.lists) < n {
		s.lists = make([]*rtree.Entry[int32], 0, max(2*cap(s.lists), n, 1024))
	}
	return s.lists[len(s.lists) : len(s.lists) : len(s.lists)+n]
}

func (s *bfScratch) commit(list []*rtree.Entry[int32]) []*rtree.Entry[int32] {
	s.lists = s.lists[:len(s.lists)+len(list)]
	return list[:len(list):len(list)]
}

// sampleArena allocates the sample sets retained in a Reduction's output
// sequence. A private evaluation's reduction carves them from its output
// arena (out). A kept one — which may live in the engine cache — takes them
// from shared slabs, so building an n-set reduction costs O(n/256)
// allocations instead of n; the arena is then per-reduction (its slabs are
// retained by the output) — only the allocation count is amortized, never
// the memory's lifetime. slabCap bounds the slab size; callers set it to the
// total sample count of the input sequence (an upper bound on the output,
// since merges only shrink), so small cached reductions never pin a
// mostly-empty 256-sample slab.
type sampleArena struct {
	slab    []iupt.Sample
	slabCap int
	out     *[]iupt.Sample // the output arena's samples; nil for a kept reduction
}

// arenaSlabSize is the maximum slab length; sets larger than this get a
// dedicated exact-size slab.
const arenaSlabSize = 256

// alloc returns a length-n sample slice, zeroed unless it is carved from an
// output arena. The capacity is clipped to n, so an append to a returned set
// copies out instead of overwriting its neighbor — same aliasing contract as
// an exact-size make.
func (a *sampleArena) alloc(n int) iupt.SampleSet {
	if a.out != nil {
		return iupt.Carve(a.out, n)
	}
	if len(a.slab)+n > cap(a.slab) {
		size := min(arenaSlabSize, a.slabCap)
		if n > size {
			size = n
		}
		a.slab = make([]iupt.Sample, 0, size)
	}
	out := a.slab[len(a.slab) : len(a.slab)+n : len(a.slab)+n]
	a.slab = a.slab[:len(a.slab)+n]
	return out
}

// outArena is recycled memory a private evaluation (see windowCache) carves
// its reductions from: the Reduction values, their sample sets and samples,
// their cells and PSLs. One goroutine carves from an arena at a time
// (recycler.arenas); what it carves stays valid until the recycler's
// release. Summaries are not carved: they stay on the heap.
type outArena struct {
	reds    []Reduction
	sets    []iupt.SampleSet
	samples []iupt.Sample
	cells   []indoor.CellID
	psls    []indoor.SLocID
}

var outArenaPool = sync.Pool{New: func() any { return new(outArena) }}

// reset empties the arena for its next evaluation, keeping its arrays. The
// carved Reductions and sample sets are zeroed: a Reduction is handed out
// as-is, and neither may pin a dropped array from an idle pool.
func (a *outArena) reset() {
	clear(a.reds)
	clear(a.sets)
	a.reds, a.sets, a.samples, a.cells, a.psls = a.reds[:0], a.sets[:0], a.samples[:0], a.cells[:0], a.psls[:0]
}

// recycler is the pooled memory of one private evaluation: its window's
// memory (nil when the window is someone else's) and the output arenas its
// goroutines carve reductions from. release hands all of it back in one
// step, after the evaluation's last read. A nil recycler — a kept window's —
// holds nothing: its arenas are nil, so reductions go to the heap.
type recycler struct {
	mem  *winMem     // the window's columns, sequences and decoded records
	outs []*outArena // outs[w] is carved by the w-th goroutine of a compute
}

// arenas returns the output arenas of a compute's n goroutines, topped up
// from the pool. Computes run one after another (presenceOracle), so the
// w-th goroutine of each carves on where the last one's stopped.
func (r *recycler) arenas(n int) []*outArena {
	if r == nil {
		return nil
	}
	for len(r.outs) < n {
		r.outs = append(r.outs, outArenaPool.Get().(*outArena))
	}
	return r.outs[:n]
}

// release returns the window's memory and every output arena to their pools:
// nothing carved from them may be read afterwards.
func (r *recycler) release() {
	if r == nil {
		return
	}
	if r.mem != nil {
		r.mem.release()
	}
	for _, a := range r.outs {
		a.reset()
		outArenaPool.Put(a)
	}
	r.mem, r.outs = nil, nil
}
