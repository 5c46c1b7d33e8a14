package core

import (
	"container/heap"
	"context"
	"sort"

	"tkplq/internal/geom"
	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/rtree"
)

// geomRect and geomPoint shorten generic helper signatures below.
type (
	geomRect  = geom.Rect
	geomPoint = geom.Point
)

// topkBestFirst is Algorithm 4. Phase 1 builds the COUNT-aggregate R-tree RC
// over object PSL MBRs (one finer-grained MBR per floor the object's PSLs
// touch). Phase 2 seeds a max-heap with the root-level join of the query
// R-tree RQ against RC, keyed by upper-bound flows (sums of COUNT
// aggregates — valid because an object's presence never exceeds 1). Phase 3
// pops heap entries best-first, descending whichever tree side is deeper,
// computing concrete flows only for leaf entries that survive to the top,
// and terminates as soon as k results are confirmed.
func (e *Engine) topkBestFirst(ctx context.Context, table *iupt.Table, q []indoor.SLocID, k int, ts, te iupt.Time) ([]Result, Stats, error) {
	seqs, memo, err := e.window(ctx, table, ts, te)
	if err != nil {
		return nil, Stats{}, err
	}
	query := make(map[indoor.SLocID]bool, len(q))
	for _, s := range q {
		query[s] = true
	}
	oracle := newOracle(e, seqs, memo, query)
	// Every object's reduction (PSLs) is needed for RC; shard them across
	// the worker pool. Summaries stay lazy — only candidates that survive to
	// the top of the heap pay for path construction, as in the paper.
	if err := oracle.ensureReductions(ctx, oracle.objects()); err != nil {
		return nil, Stats{}, err
	}

	// Phase 1: RC over PSL MBRs of non-pruned objects.
	var rcItems []rtree.BulkItem[iupt.ObjectID]
	for _, oid := range oracle.objects() {
		red, ok := oracle.reduction(oid)
		if !ok {
			continue
		}
		for _, rf := range e.PSLRects(red) {
			rcItems = append(rcItems, rtree.BulkItem[iupt.ObjectID]{Rect: rf.rect, Item: oid})
		}
	}
	rc := rtree.BulkLoad(rtree.DefaultMaxEntries, rcItems)

	// RQ over the query S-locations.
	rqItems := make([]rtree.BulkItem[indoor.SLocID], len(q))
	for i, s := range q {
		rqItems[i] = rtree.BulkItem[indoor.SLocID]{Rect: e.space.SLocBounds(s), Item: s}
	}
	rq := rtree.BulkLoad(rtree.DefaultMaxEntries, rqItems)

	// Phase 2: join the roots.
	var h bfHeap
	seqNo := 0
	push := func(en bfEntry) {
		en.seq = seqNo
		seqNo++
		heap.Push(&h, en)
	}
	rootList := entriesOf(rc.Root())
	for i := 0; i < rq.Root().Len(); i++ {
		eQ := rq.Root().Entry(i)
		list, ub := joinList(eQ.Rect(), rootList)
		push(bfEntry{ub: ub, qEntry: eQ, list: list})
	}

	// Phase 3: best-first descent. The context is checked on every pop, so a
	// canceled query abandons the search between candidate evaluations.
	results := make([]Result, 0, k)
	returned := make(map[indoor.SLocID]bool, k)
	for h.Len() > 0 && len(results) < k {
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		en := heap.Pop(&h).(bfEntry)
		oracle.stats.HeapPops++
		switch {
		case en.qEntry.IsLeafEntry() && en.flowDone:
			// Concrete flow dominates every remaining upper bound.
			results = append(results, Result{SLoc: en.qEntry.Item(), Flow: en.ub})
			returned[en.qEntry.Item()] = true

		case en.qEntry.IsLeafEntry():
			if len(en.list) == 0 || en.list[0].IsLeafEntry() {
				// Load the candidate objects and compute the concrete flow,
				// sharing each object's summary across query locations.
				flow, err := e.flowForCandidates(ctx, oracle, en.qEntry.Item(), en.list)
				if err != nil {
					return nil, Stats{}, err
				}
				push(bfEntry{ub: flow, qEntry: en.qEntry, flowDone: true})
			} else {
				// Descend the RC side.
				if list2, ub := expandList(en.qEntry.Rect(), en.list); len(list2) > 0 {
					push(bfEntry{ub: ub, qEntry: en.qEntry, list: list2})
				} else {
					push(bfEntry{ub: 0, qEntry: en.qEntry, flowDone: true})
				}
			}

		default:
			child := en.qEntry.Child()
			if len(en.list) > 0 && en.list[0].IsLeafEntry() {
				// RC side already at leaves: descend only the RQ side.
				for i := 0; i < child.Len(); i++ {
					eq2 := child.Entry(i)
					if list2, ub := joinList(eq2.Rect(), en.list); len(list2) > 0 {
						push(bfEntry{ub: ub, qEntry: eq2, list: list2})
					} else if eq2.IsLeafEntry() {
						push(bfEntry{ub: 0, qEntry: eq2, flowDone: true})
					} else {
						pushZeroSubtree(&push, eq2)
					}
				}
			} else {
				// Descend both sides (Algorithm 4 lines 41-43).
				for i := 0; i < child.Len(); i++ {
					eq2 := child.Entry(i)
					if list2, ub := expandList(eq2.Rect(), en.list); len(list2) > 0 {
						push(bfEntry{ub: ub, qEntry: eq2, list: list2})
					} else if eq2.IsLeafEntry() {
						push(bfEntry{ub: 0, qEntry: eq2, flowDone: true})
					} else {
						pushZeroSubtree(&push, eq2)
					}
				}
			}
		}
	}

	// Zero-flow padding: if fewer than k locations carried any candidate
	// objects, fill deterministically with the remaining query locations.
	if len(results) < k {
		var rest []indoor.SLocID
		for _, s := range q {
			if !returned[s] {
				rest = append(rest, s)
			}
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
		for _, s := range rest {
			if len(results) == k {
				break
			}
			results = append(results, Result{SLoc: s, Flow: 0})
		}
	}
	// Re-rank the k confirmed results so tie ordering (flow desc, id asc)
	// matches Naive and Nested-Loop exactly.
	return rankTopK(results, k), oracle.finishStats(), nil
}

// pushZeroSubtree enqueues every query leaf under eq as a zero-flow result
// candidate; needed only when an internal RQ entry loses all candidate
// objects but the query still needs padding entries.
func pushZeroSubtree(push *func(bfEntry), eq rtree.Entry[indoor.SLocID]) {
	if eq.IsLeafEntry() {
		(*push)(bfEntry{ub: 0, qEntry: eq, flowDone: true})
		return
	}
	child := eq.Child()
	for i := 0; i < child.Len(); i++ {
		pushZeroSubtree(push, child.Entry(i))
	}
}

// flowForCandidates computes the concrete flow of sloc from the (leaf-level)
// join list, de-duplicating objects that appear through several per-floor
// PSL MBRs. The candidates' summaries are computed across the worker pool;
// the presence sum itself walks objects ascending, so the flow is
// bit-identical at any pool size.
func (e *Engine) flowForCandidates(ctx context.Context, oracle *presenceOracle, sloc indoor.SLocID, list []rtree.Entry[iupt.ObjectID]) (float64, error) {
	cell := e.space.CellOfSLoc(sloc)
	seen := make(map[iupt.ObjectID]bool, len(list))
	oids := make([]iupt.ObjectID, 0, len(list))
	for _, en := range list {
		oid := en.Item()
		if !seen[oid] {
			seen[oid] = true
			oids = append(oids, oid)
		}
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	if err := oracle.ensureSummaries(ctx, oids); err != nil {
		return 0, err
	}
	flow := 0.0
	for _, oid := range oids {
		if sum := oracle.summary(oid); sum != nil {
			flow += sum.Presence(cell, e.opts.Presence)
		}
	}
	return flow, nil
}

// entriesOf snapshots a node's entries.
func entriesOf[T any](n *rtree.Node[T]) []rtree.Entry[T] {
	out := make([]rtree.Entry[T], n.Len())
	for i := range out {
		out[i] = n.Entry(i)
	}
	return out
}

// joinList filters list down to the entries intersecting rect and sums their
// COUNT aggregates into the flow upper bound (Algorithm 4 lines 13-17).
func joinList[T any](rect geomRect, list []rtree.Entry[T]) ([]rtree.Entry[T], float64) {
	var out []rtree.Entry[T]
	ub := 0.0
	for _, en := range list {
		if en.Rect().Intersects(rect) {
			out = append(out, en)
			ub += float64(en.Count())
		}
	}
	return out, ub
}

// expandList descends one RC level: the children of all list entries that
// intersect rect (Algorithm 4 lines 44-51).
func expandList[T any](rect geomRect, list []rtree.Entry[T]) ([]rtree.Entry[T], float64) {
	var out []rtree.Entry[T]
	ub := 0.0
	for _, en := range list {
		child := en.Child()
		if child == nil {
			// Leaf entry in a mixed list: keep it if it intersects.
			if en.Rect().Intersects(rect) {
				out = append(out, en)
				ub += float64(en.Count())
			}
			continue
		}
		for i := 0; i < child.Len(); i++ {
			sub := child.Entry(i)
			if sub.Rect().Intersects(rect) {
				out = append(out, sub)
				ub += float64(sub.Count())
			}
		}
	}
	return out, ub
}
