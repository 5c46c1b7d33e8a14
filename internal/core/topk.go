package core

import (
	"context"
	"fmt"
	"slices"

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
	// Duplicates are found in the caller's order on a bitset over the
	// space's S-locations, on the stack for up to 1 024 of them.
	n := d.space.NumSLocations()
	var stack [16]uint64
	seen := stack[:]
	if words := (n + 63) / 64; words > len(stack) {
		seen = make([]uint64, words)
	}
	for _, s := range q {
		if int(s) < 0 || int(s) >= n {
			return 0, fmt.Errorf("core: unknown S-location %d", s)
		}
		w, bit := s/64, uint64(1)<<(s%64)
		if seen[w]&bit != 0 {
			return 0, fmt.Errorf("core: duplicate S-location %d in query set", s)
		}
		seen[w] |= bit
	}
	if k > len(q) {
		k = len(q)
	}
	return k, nil
}

// topkNaive computes every query location's flow independently: the flow
// pass (KindFlow) run once per location over one private window, each with a
// fresh memo-less oracle pruned by that location alone, so every object's
// paths are rebuilt once per relevant location — the repeated work the
// paper's §4 intro calls out. Sharing summaries across locations is exactly
// what Naive exists to not do; within a location the objects fan out like any
// pass's (Engine.inRanges, the oracle's fan-out).
func (e *Engine) topkNaive(ctx context.Context, table *iupt.Table, q []indoor.SLocID, k int, ts, te iupt.Time) ([]Result, Stats, error) {
	en, err := e.privateEntry(ctx, table, ts, te)
	if err != nil {
		return nil, Stats{}, err
	}
	defer en.release()
	n := len(en.win.OIDs)
	var stats Stats
	computed := make([]bool, n)
	flows := make([]Result, len(q))
	out := make([]*Response, 1)
	for i, sloc := range q {
		pass := []Query{{Kind: KindFlow, SLocs: q[i : i+1]}}
		fin, err := e.newFinisher(pass, []int{0}, pass[0].SLocs)
		if err != nil {
			return nil, Stats{}, err
		}
		// Each location's reductions are handed back to the pool before the
		// next one starts, so peak memory stays O(objects) instead of
		// O(|q| × objects) reductions and summaries.
		loc := &windowEntry{win: en.win, rec: new(recycler)}
		oracle := newOracle(e, loc, 0, n, e.reachMask(pass[0].SLocs))
		if err := oracle.ensureAll(ctx, true); err != nil {
			loc.release()
			return nil, Stats{}, err
		}
		s := e.rows(oracle, pass[0].SLocs, fin.add)
		for pos, sum := range oracle.summaries {
			computed[pos] = computed[pos] || sum != nil
		}
		loc.release()
		stats.add(&s)
		fin.finish(s, out)
		flows[i] = Result{SLoc: sloc, Flow: out[0].Flow}
	}
	// The work counters are sums over locations and Workers their largest
	// pool; every location sees the same objects, and an object computed for
	// several of them counts once.
	stats.ObjectsTotal, stats.ObjectsComputed = n, 0
	for _, c := range computed {
		if c {
			stats.ObjectsComputed++
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
