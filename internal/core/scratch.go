package core

import (
	"slices"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/rtree"
)

// summarizeScratch is the reusable per-worker scratch arena of the reduce →
// summarize hot path. One instance serves one goroutine at a time; the
// engine keeps a sync.Pool of them so steady-state evaluation of a warmed-up
// engine performs near-zero allocations per object. Everything in here is
// transient working memory — outputs that outlive a call (Reduction,
// ObjectSummary) are always freshly allocated, exactly sized, and never
// alias scratch storage.
type summarizeScratch struct {
	// Dense DP state (dp.go): the (C+1)×m value matrix in column-major
	// blocks, and the per-step transition lists compiled into flat rows.
	cur, next []float64
	trans     []denseTransition
	transRows []int32 // damped row indices, referenced by denseTransition
	stepOff   []int32 // trans[stepOff[i-1]:stepOff[i]] = step i's transitions

	// Tracked-cell interning (dp.go): cell id -> dense row, plus the reverse
	// list in first-appearance order.
	cellRow *indoor.IDMarks
	tracked []indoor.CellID

	// Data reduction state (reduce.go): epoch-stamped seen-sets over the
	// space's dense cell/S-location/P-location id ranges, the collected
	// cell/PSL lists and reduced sequence before their exact-size copies, the
	// pending inter-merge run and the backing store for its intra-merged
	// sample sets.
	cellSeen *indoor.IDMarks
	slocSeen *indoor.IDMarks
	plocPos  *indoor.IDMarks
	cells    []indoor.CellID
	psls     []indoor.SLocID
	seq      []iupt.SampleSet
	run      []iupt.SampleSet
	runBuf   []iupt.Sample

	// Summary state (dp.go, presence.go): a summary's pass masses before
	// their cell-sorted exact-size copy, the segment splitter's reachability
	// marks, and the multi-segment union's no-pass products, merged segment
	// by segment from one buffer into the other.
	masses           []CellMass
	reach, nextReach []bool
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

// getScratch hands out a scratch arena from the engine's pool. Callers must
// return it with putScratch; per-shard workers hold one across all their
// objects, so pool traffic is per shard, not per object. A nil pool (an
// Engine built without NewEngine, as some tests do) degrades to plain
// allocation.
func (e *Engine) getScratch() *summarizeScratch {
	if e.scratch != nil {
		if s, ok := e.scratch.Get().(*summarizeScratch); ok {
			return s
		}
	}
	return newSummarizeScratch()
}

func (e *Engine) putScratch(s *summarizeScratch) {
	if e.scratch != nil {
		e.scratch.Put(s)
	}
}

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
}

// getBFScratch hands out a cleared scratch for a search over objects object
// positions, from the engine's pool (nil pool: see getScratch). The holder
// must return it with putBFScratch.
func (e *Engine) getBFScratch(objects int) *bfScratch {
	var s *bfScratch
	if e.bfScratch != nil {
		s, _ = e.bfScratch.Get().(*bfScratch)
	}
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
	if e.bfScratch != nil {
		e.bfScratch.Put(s)
	}
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
// sequence from shared slabs, so building an n-set reduction costs O(n/256)
// allocations instead of n. An arena is per-reduction (its slabs are
// retained by the output, which may live in the engine cache) — only the
// allocation count is amortized, never the memory's lifetime. slabCap
// bounds the slab size; callers set it to the total sample count of the
// input sequence (an upper bound on the output, since merges only shrink),
// so small cached reductions never pin a mostly-empty 256-sample slab.
type sampleArena struct {
	slab    []iupt.Sample
	slabCap int
}

// arenaSlabSize is the maximum slab length; sets larger than this get a
// dedicated exact-size slab.
const arenaSlabSize = 256

// alloc returns a zeroed length-n sample slice carved from the current
// slab. The capacity is clipped to n, so an append to a returned set copies
// out instead of overwriting its slab neighbor — same aliasing contract as
// an exact-size make.
func (a *sampleArena) alloc(n int) iupt.SampleSet {
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
