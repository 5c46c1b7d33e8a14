package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// validateTopK checks a TkPLQ query set and clamps k to its size.
func (d *Driver) validateTopK(q []indoor.SLocID, k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("core: k must be positive, got %d", k)
	}
	if len(q) == 0 {
		return 0, fmt.Errorf("core: empty query set")
	}
	seen := make(map[indoor.SLocID]bool, len(q))
	for _, s := range q {
		if int(s) < 0 || int(s) >= d.space.NumSLocations() {
			return 0, fmt.Errorf("core: unknown S-location %d", s)
		}
		if seen[s] {
			return 0, fmt.Errorf("core: duplicate S-location %d in query set", s)
		}
		seen[s] = true
	}
	if k > len(q) {
		k = len(q)
	}
	return k, nil
}

// topkNaive computes every query location's flow independently, rebuilding
// each object's paths once per relevant location — the repeated work the
// paper's §4 intro calls out. The locations themselves are independent, so
// they are sharded across the worker pool; within a location the evaluation
// is sequential and bypasses the cache, window and memo alike (sharing
// summaries across locations is exactly what Naive exists to not do).
func (e *Engine) topkNaive(ctx context.Context, table *iupt.Table, q []indoor.SLocID, k int, ts, te iupt.Time) ([]Result, Stats, error) {
	w, _, err := table.Window(ctx, ts, te, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{ObjectsTotal: len(w.OIDs), Workers: 1}

	// Each location's oracle is discarded after evaluation; only its stat
	// counters and computed positions survive, so peak memory stays
	// O(objects) instead of O(|q| × objects) summaries.
	type locOutcome struct {
		stats    Stats
		computed []int
	}
	outs := make([]locOutcome, len(q))
	flows := make([]Result, len(q))
	eval := func(i int) {
		sloc := q[i]
		// A fresh, memo-less oracle per location: no sharing, by design.
		oracle := newOracle(e, *w, nil, map[indoor.SLocID]bool{sloc: true})
		flows[i] = Result{SLoc: sloc, Flow: e.flowWithOracle(ctx, oracle, sloc)}
		out := locOutcome{stats: oracle.stats}
		for pos, s := range oracle.summaries {
			if s != nil {
				out.computed = append(out.computed, pos)
			}
		}
		outs[i] = out
	}

	workers := e.opts.workerCount()
	if workers > len(q) {
		workers = len(q)
	}
	if workers <= 1 || len(q) < minParallelItems {
		for i := range q {
			if err := ctx.Err(); err != nil {
				return nil, Stats{}, err
			}
			eval(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					if ctx.Err() != nil {
						continue // drain the channel without evaluating
					}
					eval(i)
				}
			}()
		}
		for i := range q {
			next <- i
		}
		close(next)
		wg.Wait()
		stats.Workers = workers
	}
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}

	// Merge per-location stats in query order; distinct computed objects are
	// a set union, so the merge order cannot change them.
	computed := make([]bool, len(w.OIDs))
	for _, out := range outs {
		stats.PathsEnumerated += out.stats.PathsEnumerated
		stats.BudgetFallbacks += out.stats.BudgetFallbacks
		stats.SampleSetsOriginal += out.stats.SampleSetsOriginal
		stats.SampleSetsReduced += out.stats.SampleSetsReduced
		stats.SequenceBreaks += out.stats.SequenceBreaks
		for _, pos := range out.computed {
			if !computed[pos] {
				computed[pos] = true
				stats.ObjectsComputed++
			}
		}
	}
	return rankTopK(flows, k), stats, nil
}

// resultBefore is the TkPLQ ranking order: flow descending, ties broken by
// ascending S-location id. S-location ids are unique within a query set, so
// this is a total order: a ranking has exactly one sorted permutation,
// however it was produced.
func resultBefore(a, b Result) bool {
	if a.Flow != b.Flow {
		return a.Flow > b.Flow
	}
	return a.SLoc < b.SLoc
}

// rankTopK sorts by flow descending, breaking ties by ascending S-location
// id, and truncates to k.
func rankTopK(results []Result, k int) []Result {
	slices.SortFunc(results, func(a, b Result) int {
		switch {
		case resultBefore(a, b):
			return -1
		case resultBefore(b, a):
			return 1
		}
		return 0
	})
	if k < len(results) {
		results = results[:k]
	}
	return results
}
