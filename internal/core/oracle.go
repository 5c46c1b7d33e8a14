package core

import (
	"context"
	"sync"

	"tkplq/internal/indoor"
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
// summary, want and compute's merge phase must run on one goroutine;
// computeOne is safe to call concurrently.
type presenceOracle struct {
	eng   *Engine
	query map[indoor.SLocID]bool // nil disables PSL∩Q pruning
	win   iupt.Window
	memo  objectMemo // the cached window's, aligned with win; nil = no sharing

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

// newOracle evaluates over w, one window's objects or a sub-slice of them.
// memo is that window's (Engine.window), sliced like w; nil — an uncached
// window, Naive, a monitor's privately spliced sequences — computes everything
// and shares nothing.
func newOracle(e *Engine, w iupt.Window, memo objectMemo, query map[indoor.SLocID]bool) *presenceOracle {
	return &presenceOracle{
		eng:        e,
		query:      query,
		win:        w,
		memo:       memo,
		reductions: make([]*Reduction, len(w.OIDs)),
		summaries:  make([]*ObjectSummary, len(w.OIDs)),
		stats:      Stats{ObjectsTotal: len(w.OIDs)},
	}
}

// minParallelItems is the fan-out cutoff: below this many pending work items
// the goroutine overhead outweighs the parallelism and the oracle stays on
// the calling goroutine (results are identical either way).
const minParallelItems = 4

// prunedBy replicates ReduceData's PSL∩Q check for a reduction computed
// without a query (so the reduction itself stays query-independent and
// cacheable).
func (o *presenceOracle) prunedBy(red *Reduction) bool {
	return o.query != nil && !o.eng.opts.DisableReduction && !red.HasAnyOf(o.query)
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
// recycles its working memory — and slot is where the memo keeps what is
// computed here; a memo hit touches neither. computeOne only reads oracle
// state and is safe to call concurrently (with per-caller scr and slot).
func (o *presenceOracle) computeOne(i int, needSummary bool, scr *summarizeScratch, slot *memoized) outcome {
	m := memoized{red: o.reductions[i]} // never prunedRed: a pruned object is resolved
	if o.memo != nil {
		if got := o.memo.get(i); got != nil {
			m = *got
		}
	}
	fresh := m.red == nil
	if fresh {
		m.red, _ = o.eng.reduceDataScratch(o.win.Seqs[i], nil, scr)
	}
	pruned := o.prunedBy(m.red)
	if pruned || !needSummary {
		if fresh && o.memo != nil {
			*slot = memoized{red: m.red}
			o.memo.put(i, slot)
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
		o.memo.put(i, slot)
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
	o.stats.ObjectsComputed++
	o.stats.PathsEnumerated += oc.sum.Paths
	if oc.sum.Segments > 1 {
		o.stats.SequenceBreaks += int64(oc.sum.Segments - 1)
	}
	if oc.fellBack {
		o.stats.BudgetFallbacks++
	}
	o.stats.SampleSetsOriginal += int64(len(o.win.Seqs[i]))
	o.stats.SampleSetsReduced += int64(len(oc.red.Seq))
	if o.memo != nil {
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

// summary returns the presence summary at position i, computing it on the
// calling goroutine on first use (nothing else may be pending). It returns nil
// for pruned objects.
func (o *presenceOracle) summary(i int) *ObjectSummary {
	o.want(i, true)
	_ = o.compute(context.Background(), true) // fails only on cancellation
	return o.summaries[i]
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
		o.apply(i, o.computeOne(i, needSummary, nil, nil), needSummary)
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
// identical at every pool size. The memo values it stores are carved from one
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
	if workers := min(o.eng.opts.workerCount(), len(pending)); workers > 1 && len(pending) >= minParallelItems {
		return o.fanOut(ctx, pending, slots, needSummary, workers)
	}
	scr := o.eng.getScratch()
	defer o.eng.putScratch(scr)
	for k, i := range pending {
		if err := ctx.Err(); err != nil {
			return err
		}
		o.apply(i, o.computeOne(i, needSummary, scr, slotAt(slots, k)), needSummary)
	}
	return ctx.Err()
}

// slotAt returns the k-th memo value a compute carved; nil without a memo.
func slotAt(slots []memoized, k int) *memoized {
	if slots == nil {
		return nil
	}
	return &slots[k]
}

// fanOut is compute across workers goroutines, each a contiguous range of the
// ascending pending list, checking ctx between objects so a canceled
// evaluation stops burning the pool within one object's work.
func (o *presenceOracle) fanOut(ctx context.Context, pending []int, slots []memoized, needSummary bool, workers int) error {
	outcomes := make([]outcome, len(pending))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(pending)/workers, (w+1)*len(pending)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One scratch arena per worker: every object of its range reuses
			// the buffers, so the pool is touched once per range.
			scr := o.eng.getScratch()
			defer o.eng.putScratch(scr)
			for k := lo; k < hi; k++ {
				if ctx.Err() != nil {
					return
				}
				outcomes[k] = o.computeOne(pending[k], needSummary, scr, slotAt(slots, k))
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err // the outcomes are discarded with the query
	}
	for k, i := range pending {
		o.apply(i, outcomes[k], needSummary)
	}
	o.stats.Workers = max(o.stats.Workers, workers)
	return nil
}

// finishStats normalizes the oracle's stats before they are returned:
// Workers reflects the largest pool used (1 when everything stayed on the
// calling goroutine), and memo lookups are folded into the engine's lifetime
// counters.
func (o *presenceOracle) finishStats() Stats {
	if o.stats.Workers == 0 {
		o.stats.Workers = 1
	}
	if o.memo != nil {
		o.eng.cache.objHits.Add(o.stats.CacheHits)
		o.eng.cache.objMisses.Add(o.stats.CacheMisses)
	}
	return o.stats
}
