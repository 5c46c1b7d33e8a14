package core

import (
	"context"
	"slices"
	"sync"

	"tkplq/internal/iupt"
)

// presenceOracle reduces and summarizes objects for one query, caching
// results so that every object's paths are constructed at most once
// regardless of how many query locations need it. This realizes the
// "intermediate result sharing" of Algorithm 3 and the shared flow
// computation required by Algorithm 4 (paper §4.2, line 28 remark).
//
// Everything is by window position (iupt.Window): position i is the window's
// i-th smallest object id, so a walk over ascending positions is the canonical
// object order. The oracle is the sharding point of the concurrent pipeline:
// per-object work (Algorithm 1 reduction, Equation 1 summarization) is
// independent across objects, so compute splits the pending positions into
// contiguous ranges and fans them across the engine's worker pool. Outcomes
// land in a per-index slice and are merged — into the oracle's columns and
// into Stats — in ascending position, so results and statistics are identical
// to the single-threaded path for every worker count. Over a cached window it
// also fronts the window's memo, by the same positions: an object reduced and
// summarized by any earlier query over the same records is served from there
// without touching a sample — and without a goroutine: only objects with work
// left are pending.
//
// want and compute's merge phase must run on one goroutine; computeOne is
// safe to call concurrently.
type presenceOracle struct {
	eng  *Engine
	mask []bool       // the query's reachMask; nil disables PSL∩Q pruning
	en   *windowEntry // the window's entry: its memo, size estimate and pooled memory
	win  window       // en's window, or the slice of it evaluated
	memo objectMemo   // en's memo sliced like win; nil = no sharing

	// By position, what this query has resolved: the reduction (prunedRed
	// once the PSL∩Q check pruned the object) and the summary. pending lists
	// the positions want queued for the next compute, ascending.
	reductions []*Reduction
	summaries  []*ObjectSummary
	pending    []int
	stats      Stats
}

// prunedRed marks a position whose object the query's PSL∩Q check pruned: it
// has no summary and contributes an exact 0.0 everywhere.
var prunedRed = new(Reduction)

// newOracle evaluates over positions [lo, hi) of en's window: all of it, or
// the one object a presence query asks about. A kept entry (Engine.window)
// brings its memo, which the oracle reads and fills; a private one — an
// unadmitted or bypassed window, Naive's per-location evaluations —
// computes everything, shares nothing and carves its reductions from en's
// pooled memory, so they are valid until en's release.
func newOracle(e *Engine, en *windowEntry, lo, hi int, mask []bool) *presenceOracle {
	o := new(presenceOracle)
	o.reset(e, en, lo, hi, mask)
	return o
}

// reset makes o the oracle newOracle returns, over columns grown from o's
// own: a pooled oracle (bfScratch) hands them back empty and cleared.
func (o *presenceOracle) reset(e *Engine, en *windowEntry, lo, hi int, mask []bool) {
	*o = presenceOracle{
		eng:        e,
		mask:       mask,
		en:         en,
		win:        window{Window: iupt.Window{OIDs: en.win.OIDs[lo:hi], Seqs: en.win.Seqs[lo:hi]}},
		reductions: slices.Grow(o.reductions, hi-lo)[:hi-lo],
		summaries:  slices.Grow(o.summaries, hi-lo)[:hi-lo],
		pending:    o.pending,
		stats:      Stats{ObjectsTotal: hi - lo},
	}
	if en.win.pieces != nil {
		o.win.pieces = en.win.pieces[lo:hi]
	}
	if en.memo != nil {
		o.memo = en.memo[lo:hi]
	}
}

// minParallelItems is the fan-out cutoff (workersFor): below this many work
// items the goroutine overhead outweighs the parallelism and the work stays
// on the calling goroutine (results are identical either way).
const minParallelItems = 4

// prunedBy is the PSL∩Q check (reaches) for a reduction computed without a
// query (so the reduction itself stays query-independent and cacheable).
func (o *presenceOracle) prunedBy(red *Reduction) bool {
	return o.mask != nil && !o.eng.opts.DisableReduction && !reaches(red.Seq, o.mask)
}

// outcome is the result of computing one object, before it is merged into
// the oracle's columns and stats.
type outcome struct {
	red      *Reduction
	sum      *ObjectSummary // nil unless a summary was requested
	fellBack bool
	pruned   bool
	sumHit   bool // summary served from the window's memo
}

// computeOne reduces (and, when needSummary, summarizes) the object at
// position i, going through the window's memo when there is one and reusing
// a reduction this query already holds. scr is the caller's scratch arena —
// shard workers hold one across all their objects, so steady-state evaluation
// recycles its working memory — out the output arena a private evaluation
// carves the reduction from (nil with a memo), and slot is where the memo
// keeps what is computed here; a memo hit touches none of them. computeOne
// only reads oracle state and is safe to call concurrently (with per-caller
// scr, out and slot).
func (o *presenceOracle) computeOne(i int, needSummary bool, scr *summarizeScratch, out *outArena, slot *memoized) outcome {
	m := memoized{red: o.reductions[i]} // never prunedRed: a pruned object is resolved
	if o.memo != nil {
		if got := o.memo.get(i); got != nil {
			m = *got
		}
	}
	fresh := m.red == nil
	if fresh {
		m.red = o.eng.reduceAt(&o.win, i, scr, out)
	}
	pruned := o.prunedBy(m.red)
	if pruned || !needSummary {
		if fresh && o.memo != nil {
			*slot = memoized{red: m.red}
			o.en.bytes.Add(o.memo.put(i, slot))
		}
		if pruned {
			return outcome{pruned: true}
		}
		return outcome{red: m.red}
	}
	if m.sum != nil {
		return outcome{red: m.red, sum: m.sum, fellBack: m.fellBack, sumHit: true}
	}
	m.sum, m.fellBack = o.eng.summarizeScratch(m.red.Seq, scr)
	if o.memo != nil {
		*slot = m
		o.en.bytes.Add(o.memo.put(i, slot))
	}
	return outcome{red: m.red, sum: m.sum, fellBack: m.fellBack}
}

// memoHolds reports whether computeOne would be an O(1) lookup: the window's
// memo stores the object's reduction and, unless the query's PSL∩Q check
// prunes it, the summary when one is needed.
func (o *presenceOracle) memoHolds(i int, needSummary bool) bool {
	if o.memo == nil {
		return false
	}
	m := o.memo.get(i)
	return m != nil && (!needSummary || m.sum != nil || o.prunedBy(m.red))
}

// apply merges an outcome into the oracle's columns: the reduction, and the
// summary and its stats when one was needed. Must run on the merge goroutine.
// It touches only its position's slots and integer counters, so memo hits
// merged ahead of the computed objects (want) leave both as one ascending pass
// would.
func (o *presenceOracle) apply(i int, oc outcome, needSummary bool) {
	if oc.pruned {
		o.reductions[i] = prunedRed
		return
	}
	o.reductions[i] = oc.red
	if !needSummary {
		return
	}
	o.summaries[i] = oc.sum
	o.stats.addObject(oc.sum, oc.fellBack, o.win.records(i), len(oc.red.Seq))
	if o.en.counted {
		if oc.sumHit {
			o.stats.CacheHits++
		} else {
			o.stats.CacheMisses++
		}
	}
}

// summarized reports whether position i's summary is resolved: computed, or
// known to be nil because the object was pruned.
func (o *presenceOracle) summarized(i int) bool {
	return o.summaries[i] != nil || o.reductions[i] == prunedRed
}

// want queues position i for the next compute unless the query already holds
// its reduction (and, when needSummary, its summary). What the window's memo
// holds is an O(1) lookup, taken right here on the calling goroutine, so a
// fully memoized query starts no goroutine (Stats.Workers reads 1) and
// minParallelItems counts work to be done.
func (o *presenceOracle) want(i int, needSummary bool) {
	if needSummary && o.summarized(i) || !needSummary && o.reductions[i] != nil {
		return
	}
	if o.memoHolds(i, needSummary) {
		o.apply(i, o.computeOne(i, needSummary, nil, nil, nil), needSummary)
	} else {
		o.pending = append(o.pending, i)
	}
}

// ensureAll resolves every position's reduction and, when needSummary, its
// summary.
func (o *presenceOracle) ensureAll(ctx context.Context, needSummary bool) error {
	for i := range o.win.OIDs {
		o.want(i, needSummary)
	}
	return o.compute(ctx, needSummary)
}

// compute resolves the pending positions, then merges the outcomes in
// ascending position so columns, stats and every later flow accumulation are
// identical at every pool size: on one goroutine each as it comes, across
// several after the join. The memo values it stores are carved from one
// slice of the pending count. A canceled ctx stops the work between objects
// and returns ctx.Err(); the completed per-object work stays in the window's
// memo (it is a function of the window's records alone, so partial progress
// is safe to keep).
func (o *presenceOracle) compute(ctx context.Context, needSummary bool) error {
	pending := o.pending
	o.pending = o.pending[:0]
	if len(pending) == 0 {
		return ctx.Err()
	}
	var slots []memoized
	if o.memo != nil {
		slots = make([]memoized, len(pending))
	}
	workers := o.eng.workersFor(len(pending))
	outs := o.en.rec.arenas(workers)
	var outcomes []outcome
	if workers > 1 {
		outcomes = make([]outcome, len(pending))
	}
	o.eng.inRanges(len(pending), workers, func(w, lo, hi int, scr *summarizeScratch) {
		for k := lo; k < hi && ctx.Err() == nil; k++ {
			oc := o.computeOne(pending[k], needSummary, scr, arenaAt(outs, w), slotAt(slots, k))
			if outcomes == nil {
				o.apply(pending[k], oc, needSummary)
			} else {
				outcomes[k] = oc
			}
		}
	})
	if err := ctx.Err(); err != nil || outcomes == nil {
		return err // a canceled query's outcomes are discarded with it
	}
	for k, i := range pending {
		o.apply(i, outcomes[k], needSummary)
	}
	o.stats.Workers = max(o.stats.Workers, workers)
	return nil
}

// workersFor returns the number of goroutines n work items fan out over:
// the engine's workers, at most n, and 1 below minParallelItems.
func (e *Engine) workersFor(n int) int {
	if workers := min(e.opts.workerCount(), n); workers > 1 && n >= minParallelItems {
		return workers
	}
	return 1
}

// inRanges splits items [0, n) into workers contiguous ranges and calls body
// on each, the w-th range [lo, hi) with a pooled scratch arena of its own, so
// every item of a range reuses the buffers: one range on the calling
// goroutine, several on a goroutine each, returning when all are done.
func (e *Engine) inRanges(n, workers int, body func(w, lo, hi int, scr *summarizeScratch)) {
	if workers == 1 {
		scr := e.getScratch()
		defer e.putScratch(scr)
		body(0, 0, n, scr)
		return
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scr := e.getScratch()
			defer e.putScratch(scr)
			body(w, w*n/workers, (w+1)*n/workers, scr)
		}()
	}
	wg.Wait()
}

// slotAt returns the k-th memo value a compute carved; nil without a memo.
func slotAt(slots []memoized, k int) *memoized {
	if slots == nil {
		return nil
	}
	return &slots[k]
}

// arenaAt returns the w-th goroutine's output arena; nil for a kept window.
func arenaAt(outs []*outArena, w int) *outArena {
	if outs == nil {
		return nil
	}
	return outs[w]
}

// finishStats normalizes the oracle's stats before they are returned:
// Workers reflects the largest pool used (1 when everything stayed on the
// calling goroutine), and memo lookups are folded into the engine's lifetime
// counters.
func (o *presenceOracle) finishStats() Stats {
	if o.stats.Workers == 0 {
		o.stats.Workers = 1
	}
	if o.en.counted {
		o.eng.cache.objHits.Add(o.stats.CacheHits)
		o.eng.cache.objMisses.Add(o.stats.CacheMisses)
	}
	return o.stats
}
