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
// The oracle is the sharding point of the concurrent pipeline: per-object
// work (Algorithm 1 reduction, Equation 1 summarization) is independent
// across objects, so ensureReductions/ensureSummaries partition the pending
// objects into contiguous shards (iupt.ShardObjects) and fan them across the
// engine's worker pool. Outcomes land in a per-index slice and are merged
// into the oracle's maps — and into Stats — in ascending object order, so
// results and statistics are identical to the single-threaded path for every
// worker count. Over a cached window it also fronts the window's memo: an
// object reduced and summarized by any earlier query over the same records is
// served from there, by object id, without touching a sample — and without a
// goroutine: only objects with work left are pending.
//
// The lazy accessors (reduction, summary) and the merge phase must run on
// one goroutine; computeOne is safe to call concurrently.
type presenceOracle struct {
	eng   *Engine
	query map[indoor.SLocID]bool // nil disables PSL∩Q pruning
	seqs  map[iupt.ObjectID]iupt.Sequence
	memo  *objectMemo // of the cached window seqs came from; nil = no sharing

	reductions map[iupt.ObjectID]*Reduction // nil value = pruned
	summaries  map[iupt.ObjectID]*ObjectSummary
	stats      Stats
}

// newOracle evaluates over seqs, a subset of one window's sequences. memo is
// that window's (Engine.window); nil — an uncached window, Naive, a monitor's
// privately spliced sequences — computes everything and shares nothing.
func newOracle(e *Engine, seqs map[iupt.ObjectID]iupt.Sequence, memo *objectMemo, query map[indoor.SLocID]bool) *presenceOracle {
	return &presenceOracle{
		eng:        e,
		query:      query,
		seqs:       seqs,
		memo:       memo,
		reductions: make(map[iupt.ObjectID]*Reduction, len(seqs)),
		summaries:  make(map[iupt.ObjectID]*ObjectSummary, len(seqs)),
		stats:      Stats{ObjectsTotal: len(seqs)},
	}
}

// minParallelItems is the fan-out cutoff: below this many pending work items
// the goroutine overhead outweighs the parallelism and the oracle stays on
// the calling goroutine (results are identical either way).
const minParallelItems = 4

// objects returns all object ids in ascending order, for deterministic
// iteration.
func (o *presenceOracle) objects() []iupt.ObjectID {
	return iupt.SortedObjects(o.seqs)
}

// prunedBy replicates ReduceData's PSL∩Q check for a reduction computed
// without a query (so the reduction itself stays query-independent and
// cacheable).
func (o *presenceOracle) prunedBy(red *Reduction) bool {
	return o.query != nil && !o.eng.opts.DisableReduction && !red.HasAnyOf(o.query)
}

// outcome is the result of computing one object, before it is merged into
// the oracle's maps and stats.
type outcome struct {
	red      *Reduction
	sum      *ObjectSummary // nil unless a summary was requested
	fellBack bool
	pruned   bool
	sumHit   bool // summary served from the window's memo
}

// computeOne reduces (and, when needSummary, summarizes) one object, going
// through the window's memo when there is one. have, if non-nil, is a
// reduction already computed for this object and query window, reused on
// memo miss. scr is the caller's scratch arena — shard workers hold one
// across all their objects, so steady-state evaluation recycles its working
// memory. computeOne only reads oracle state and is safe to call concurrently
// (with per-caller scr).
func (o *presenceOracle) computeOne(oid iupt.ObjectID, needSummary bool, have *Reduction, scr *summarizeScratch) outcome {
	m := memoized{red: have}
	if o.memo != nil {
		if got, ok := o.memo.get(oid); ok {
			m = got
		}
	}
	if m.red == nil {
		m.red, _ = o.eng.reduceDataScratch(o.seqs[oid], nil, scr)
	}
	pruned := o.prunedBy(m.red)
	if pruned || !needSummary {
		if o.memo != nil && m.sum == nil {
			o.memo.put(oid, memoized{red: m.red})
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
		o.memo.put(oid, m)
	}
	return outcome{red: m.red, sum: m.sum, fellBack: m.fellBack}
}

// memoHolds reports whether computeOne would be an O(1) lookup: the window's
// memo stores the object's reduction and, unless the query's PSL∩Q check
// prunes it, the summary when one is needed.
func (o *presenceOracle) memoHolds(oid iupt.ObjectID, needSummary bool) bool {
	if o.memo == nil {
		return false
	}
	m, ok := o.memo.get(oid)
	return ok && m.red != nil && (!needSummary || m.sum != nil || o.prunedBy(m.red))
}

// applySummary merges a summarized outcome into the oracle's maps and stats.
// Must run on the merge goroutine. It touches only map slots and integer
// counters, so memo hits merged ahead of the computed objects (ensure) leave
// both as one ascending pass would.
func (o *presenceOracle) applySummary(oid iupt.ObjectID, oc outcome) {
	if oc.pruned {
		o.reductions[oid] = nil
		o.summaries[oid] = nil
		return
	}
	o.reductions[oid] = oc.red
	o.summaries[oid] = oc.sum
	o.stats.ObjectsComputed++
	o.stats.PathsEnumerated += oc.sum.Paths
	if oc.sum.Segments > 1 {
		o.stats.SequenceBreaks += int64(oc.sum.Segments - 1)
	}
	if oc.fellBack {
		o.stats.BudgetFallbacks++
	}
	o.stats.SampleSetsOriginal += int64(len(o.seqs[oid]))
	o.stats.SampleSetsReduced += int64(len(oc.red.Seq))
	if o.memo != nil {
		if oc.sumHit {
			o.stats.CacheHits++
		} else {
			o.stats.CacheMisses++
		}
	}
}

// reduction returns the object's data reduction, or (nil, false) when the
// object was pruned by the PSL∩Q check.
func (o *presenceOracle) reduction(oid iupt.ObjectID) (*Reduction, bool) {
	if red, ok := o.reductions[oid]; ok {
		return red, red != nil
	}
	scr := o.eng.getScratch()
	oc := o.computeOne(oid, false, nil, scr)
	o.eng.putScratch(scr)
	if oc.pruned {
		o.reductions[oid] = nil
		return nil, false
	}
	o.reductions[oid] = oc.red
	return oc.red, true
}

// summary returns the object's presence summary, computing it on first use.
// It returns nil for pruned objects.
func (o *presenceOracle) summary(oid iupt.ObjectID) *ObjectSummary {
	if s, ok := o.summaries[oid]; ok {
		return s
	}
	scr := o.eng.getScratch()
	oc := o.computeOne(oid, true, o.reductions[oid], scr)
	o.eng.putScratch(scr)
	o.applySummary(oid, oc)
	return oc.sum
}

// ensureSummaries fills the reduction and summary caches for the listed
// objects, fanning pending ones across the engine's worker pool. A canceled
// ctx aborts between objects and returns ctx.Err(); completed per-object
// work stays in the window's memo (it is a function of the window's records
// alone, so partial progress is safe to keep) but none of it is merged into
// this oracle.
func (o *presenceOracle) ensureSummaries(ctx context.Context, oids []iupt.ObjectID) error {
	return o.ensure(ctx, oids, true)
}

// ensureReductions fills only the reduction cache for the listed objects
// (Best-First phase 1 needs every object's PSLs but summaries only for the
// candidates that survive to the top of the heap).
func (o *presenceOracle) ensureReductions(ctx context.Context, oids []iupt.ObjectID) error {
	return o.ensure(ctx, oids, false)
}

// ensure computes pending objects across min(Workers, pending) goroutines,
// partitioned with iupt.ShardObjects, then merges outcomes in ascending
// object order so maps, stats and every later flow accumulation are
// identical to the sequential path. Workers check ctx between objects, so a
// canceled evaluation stops burning the pool within one object's work.
//
// Pending is what is left to compute: an object the window's memo holds is
// an O(1) lookup, taken here on the calling goroutine, so a fully memoized
// query starts no goroutine (Stats.Workers reads 1) and minParallelItems
// counts work to be done.
func (o *presenceOracle) ensure(ctx context.Context, oids []iupt.ObjectID, needSummary bool) error {
	pending := make([]iupt.ObjectID, 0, len(oids))
	for _, oid := range oids {
		if needSummary {
			if _, ok := o.summaries[oid]; ok {
				continue
			}
		} else if _, ok := o.reductions[oid]; ok {
			continue
		}
		if !o.memoHolds(oid, needSummary) {
			pending = append(pending, oid)
		} else if needSummary {
			o.summary(oid)
		} else {
			o.reduction(oid)
		}
	}
	workers := o.eng.opts.workerCount()
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers <= 1 || len(pending) < minParallelItems {
		for _, oid := range pending {
			if err := ctx.Err(); err != nil {
				return err
			}
			if needSummary {
				o.summary(oid)
			} else {
				o.reduction(oid)
			}
		}
		return ctx.Err()
	}

	outcomes := make([]outcome, len(pending))
	shards := iupt.ShardObjects(pending, workers)
	var wg sync.WaitGroup
	start := 0
	for _, shard := range shards {
		wg.Add(1)
		go func(shard []iupt.ObjectID, base int) {
			defer wg.Done()
			// One scratch arena per shard worker: every object of the shard
			// reuses its buffers, so the pool is touched once per shard.
			scr := o.eng.getScratch()
			defer o.eng.putScratch(scr)
			for i, oid := range shard {
				if ctx.Err() != nil {
					return
				}
				var have *Reduction
				if red, ok := o.reductions[oid]; ok && red != nil {
					have = red
				}
				outcomes[base+i] = o.computeOne(oid, needSummary, have, scr)
			}
		}(shard, start)
		start += len(shard)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// Partial outcomes are discarded: a canceled query returns no result,
		// and whatever the workers finished already went to the window's memo.
		return err
	}

	for i, oid := range pending {
		oc := outcomes[i]
		if needSummary {
			o.applySummary(oid, oc)
		} else if oc.pruned {
			o.reductions[oid] = nil
		} else {
			o.reductions[oid] = oc.red
		}
	}
	if len(shards) > o.stats.Workers {
		o.stats.Workers = len(shards)
	}
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
