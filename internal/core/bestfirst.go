package core

import (
	"context"
	"math/bits"
	"slices"
	"sync/atomic"

	"tkplq/internal/geom"
	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/rtree"
)

// Best-First (Algorithm 4) joins two R-trees and computes concrete flows only
// for what reaches the top of a heap. Over a cached window the search pays
// for that join and its presence lookups and for nothing else, because
// neither tree changes between two asks:
//
//   - RQ, the query's PSL∩Q reachMask and RC are a function of the query's
//     S-locations and the window's reductions: built once per cached window
//     and kept beside the window's memo (rankIndex, windowEntry.rank), under
//     the same proof — the window's identity.
//   - The search's working memory — the heap, the join lists, the candidate
//     bitset — is pooled (bfScratch); the summaries it has looked up are the
//     oracle's, by the same positions RC names.
//   - The answer: what a search finds is a pure function of RQ, RC and k, so
//     the slot also keeps the last finished search's results for its k
//     (bfAnswer). The slot answers only the question it was built for — the
//     query set in the caller's order and k — under the window's identity;
//     any other question searches.
//
// Trees are immutable after BulkLoad, so they are shared by concurrent
// searches without a lock. A private window (Query.DisableCache, a window the
// cache does not admit) builds all of it per call and never replays.

// geomRect and geomPoint shorten helper signatures, here and in the tests.
type (
	geomRect  = geom.Rect
	geomPoint = geom.Point
)

// rankIndex is Best-First's phase 1 over one window for one query set: the
// query R-tree RQ, and the COUNT-aggregate R-tree RC over the PSL MBRs of the
// objects the set does not prune (one finer-grained MBR per floor an object's
// PSLs touch). RC's items are window positions (iupt.Window), so a search
// keeps per-object state in flat slices — the oracle's — and walks candidates
// ascending by walking positions ascending.
type rankIndex struct {
	// slocs is the set it was built for: a private copy in the caller's
	// order. The bulk load sees them in that order, so a permuted set is
	// another RQ — with the same answer, but its own pop count.
	slocs []indoor.SLocID
	mask  []bool // the set's reachMask, the oracle's PSL∩Q check
	rq    *rtree.Tree[indoor.SLocID]
	rc    *rtree.Tree[int32]
	// answer is the last finished search's over this index, replaced whole;
	// nil until one finished.
	answer atomic.Pointer[bfAnswer]
	bytes  atomic.Int64 // estimated live size, the answer's included
}

// bfAnswer is one finished search's answer for k: the ranked results and the
// Stats a search over the fully memoized window reports, which is what the
// search left behind (replayStats). Immutable once stored.
type bfAnswer struct {
	k       int
	results []Result
	stats   Stats
}

// keep makes a the index's answer (nil forgets it) and moves the size
// estimate by the difference to the one it replaces.
func (ri *rankIndex) keep(a *bfAnswer) {
	ri.bytes.Add(a.size() - ri.answer.Swap(a).size())
}

// size estimates an answer's live memory: the struct (136) and 16 per result.
func (a *bfAnswer) size() int64 {
	if a == nil {
		return 0
	}
	return 136 + 16*int64(len(a.results))
}

// replayStats turns a finished search's Stats into those of the same search
// over the window it left fully memoized: every summary it looked up is then a
// memo hit, and no object is computed on a goroutine of its own.
func replayStats(st Stats) Stats {
	st.CacheHits += st.CacheMisses
	st.CacheMisses = 0
	st.Workers = 1
	return st
}

// rankIndex returns the index for q over a window and resets oracle to one
// that prunes by q: the index in the window entry's slot when it was built for
// q, else a new one, stored there. Building needs every object's reduction
// (its PSLs), sharded across the worker pool; summaries stay lazy. By the time
// an index is in a slot the window's memo holds all of those reductions, so
// skipping the step on a hit leaves Stats as a rebuild would.
func (e *Engine) rankIndex(ctx context.Context, en *windowEntry, q []indoor.SLocID, oracle *presenceOracle) (*rankIndex, error) {
	if ri := en.rank.Load(); ri != nil && slices.Equal(ri.slocs, q) {
		oracle.reset(e, en, 0, len(en.win.OIDs), ri.mask)
		return ri, nil
	}
	ri := &rankIndex{slocs: slices.Clone(q), mask: e.reachMask(q)}
	qItems := make([]rtree.BulkItem[indoor.SLocID], len(q))
	for i, s := range q {
		qItems[i] = rtree.BulkItem[indoor.SLocID]{Rect: e.space.SLocBounds(s), Item: s}
	}
	ri.rq = rtree.BulkLoad(rtree.DefaultMaxEntries, qItems)

	oracle.reset(e, en, 0, len(en.win.OIDs), ri.mask)
	if err := oracle.ensureAll(ctx, false); err != nil {
		return nil, err
	}
	var items []rtree.BulkItem[int32]
	for pos, red := range oracle.reductions {
		if red == prunedRed {
			continue
		}
		for _, rf := range e.PSLRects(red) {
			items = append(items, rtree.BulkItem[int32]{Rect: rf.rect, Item: int32(pos)})
		}
	}
	ri.rc = rtree.BulkLoad(rtree.DefaultMaxEntries, items)
	// Per location its id; per P-location its mask byte; per item of either
	// tree a leaf entry and its share of the levels above.
	ri.bytes.Store(8*int64(len(q)) + int64(len(ri.mask)) + 64*int64(len(q)+len(items)))
	en.rank.Store(ri)
	return ri, nil
}

// topkBestFirst is Algorithm 4. Phase 1 is the rank index: RQ, and RC over
// object PSL MBRs. Phase 2 seeds a max-heap with the root-level join of the query
// R-tree RQ against RC, keyed by upper-bound flows (sums of COUNT
// aggregates — valid because an object's presence never exceeds 1). Phase 3
// pops heap entries best-first, descending whichever tree side is deeper,
// computing concrete flows only for leaf entries that survive to the top,
// and terminates as soon as k results are confirmed.
//
// A question the window's slot has answered — the same query set in the same
// order, the same k — is replayed from it instead: no oracle, no scratch, no
// tree walk. A finished search over a kept window stores its answer there; a
// canceled one stores nothing.
func (e *Engine) topkBestFirst(ctx context.Context, table *iupt.Table, q []indoor.SLocID, k int, ts, te iupt.Time) ([]Result, Stats, error) {
	en, err := e.window(ctx, table, ts, te)
	if err != nil {
		return nil, Stats{}, err
	}
	defer en.release() // after the last read: the results are values
	if a := en.answer(q, k); a != nil {
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		e.cache.objHits.Add(a.stats.CacheHits) // as finishStats would
		return slices.Clone(a.results), a.stats, nil
	}
	s := e.getBFScratch(len(en.win.OIDs))
	defer e.putBFScratch(s)
	oracle := &s.oracle
	ri, err := e.rankIndex(ctx, en, q, oracle)
	if err != nil {
		return nil, Stats{}, err
	}

	// Phase 2: join the roots.
	rcRoot := ri.rc.Root()
	rootList := s.reserve(rcRoot.Len())
	for i := 0; i < rcRoot.Len(); i++ {
		rootList = append(rootList, rcRoot.Entry(i))
	}
	rootList = s.commit(rootList)
	rqRoot := ri.rq.Root()
	for i := 0; i < rqRoot.Len(); i++ {
		eQ := rqRoot.Entry(i)
		list, ub := s.joinList(eQ.Rect(), rootList)
		s.push(bfEntry{ub: ub, qEntry: eQ, list: list})
	}

	// Phase 3: best-first descent. The context is checked on every pop, so a
	// canceled query abandons the search between candidate evaluations.
	results := make([]Result, 0, k)
	for len(s.heap) > 0 && len(results) < k {
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		en := s.heap.pop()
		oracle.stats.HeapPops++
		rcAtLeaves := len(en.list) == 0 || en.list[0].IsLeafEntry()
		switch {
		case en.flowDone:
			// Concrete flow dominates every remaining upper bound.
			results = append(results, Result{SLoc: en.qEntry.Item(), Flow: en.ub})

		case en.qEntry.IsLeafEntry() && rcAtLeaves:
			// Load the candidate objects and compute the concrete flow,
			// sharing each object's summary across query locations.
			flow, err := e.flowForCandidates(ctx, oracle, s, en.qEntry.Item(), en.list)
			if err != nil {
				return nil, Stats{}, err
			}
			s.push(bfEntry{ub: flow, qEntry: en.qEntry, flowDone: true})

		case en.qEntry.IsLeafEntry():
			// Descend the RC side.
			s.pushJoined(en.qEntry, en.list, true)

		default:
			// Descend the RQ side, and the RC side with it (Algorithm 4 lines
			// 41-43) unless it is already at its leaves.
			child := en.qEntry.Child()
			for i := 0; i < child.Len(); i++ {
				s.pushJoined(child.Entry(i), en.list, !rcAtLeaves)
			}
		}
	}

	// Zero-flow padding: if fewer than k locations carried any candidate
	// objects, fill deterministically with the remaining query locations.
	if len(results) < k {
		returned := make(map[indoor.SLocID]bool, len(results))
		for _, r := range results {
			returned[r.SLoc] = true
		}
		var rest []indoor.SLocID
		for _, s := range q {
			if !returned[s] {
				rest = append(rest, s)
			}
		}
		slices.Sort(rest)
		for _, s := range rest[:min(len(rest), k-len(results))] {
			results = append(results, Result{SLoc: s, Flow: 0})
		}
	}
	// Re-rank the k confirmed results so tie ordering (flow desc, id asc)
	// matches Naive and Nested-Loop exactly.
	results, st := rankTopK(results, k), oracle.finishStats()
	if en.memo != nil { // a private entry's slot dies with this call
		ri.keep(&bfAnswer{k: k, results: slices.Clone(results), stats: replayStats(st)})
	}
	return results, st, nil
}

// answer returns the answer the entry's slot holds for the query set q, in
// that order, and k; nil when it holds none.
func (en *windowEntry) answer(q []indoor.SLocID, k int) *bfAnswer {
	ri := en.rank.Load()
	if ri == nil || !slices.Equal(ri.slocs, q) {
		return nil
	}
	if a := ri.answer.Load(); a != nil && a.k == k {
		return a
	}
	return nil
}

// pushJoined joins eq against list — one RC level down when expand is set —
// and enqueues it with the join's upper bound. An entry that loses all its
// candidate objects still owes the search its query leaves: they are enqueued
// as confirmed zero flows.
func (s *bfScratch) pushJoined(eq *rtree.Entry[indoor.SLocID], list []*rtree.Entry[int32], expand bool) {
	var ub float64
	if expand {
		list, ub = s.expandList(eq.Rect(), list)
	} else {
		list, ub = s.joinList(eq.Rect(), list)
	}
	if len(list) > 0 {
		s.push(bfEntry{ub: ub, qEntry: eq, list: list})
	} else {
		s.pushZeroSubtree(eq)
	}
}

func (s *bfScratch) pushZeroSubtree(eq *rtree.Entry[indoor.SLocID]) {
	if eq.IsLeafEntry() {
		s.push(bfEntry{ub: 0, qEntry: eq, flowDone: true})
		return
	}
	child := eq.Child()
	for i := 0; i < child.Len(); i++ {
		s.pushZeroSubtree(child.Entry(i))
	}
}

// joinList filters list down to the entries intersecting rect and sums their
// COUNT aggregates into the flow upper bound (Algorithm 4 lines 13-17).
func (s *bfScratch) joinList(rect geomRect, list []*rtree.Entry[int32]) ([]*rtree.Entry[int32], float64) {
	out := s.reserve(len(list))
	ub := 0.0
	for _, en := range list {
		if en.Rect().Intersects(rect) {
			out = append(out, en)
			ub += float64(en.Count())
		}
	}
	return s.commit(out), ub
}

// expandList descends one RC level: the children of all list entries that
// intersect rect (Algorithm 4 lines 44-51).
func (s *bfScratch) expandList(rect geomRect, list []*rtree.Entry[int32]) ([]*rtree.Entry[int32], float64) {
	n := 0
	for _, en := range list {
		if child := en.Child(); child != nil {
			n += child.Len()
		} else {
			n++
		}
	}
	out := s.reserve(n)
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
	return s.commit(out), ub
}

// flowForCandidates computes the concrete flow of sloc from the (leaf-level)
// join list. An object appears in the list once per floor its PSLs touch; the
// candidate bitset over object positions de-duplicates them and orders them:
// its set bits are walked ascending, which is ascending object id, so the
// presence sum adds in the canonical order and the flow is bit-identical at
// any pool size. Only candidates the oracle has no summary for yet are
// computed, across the worker pool.
func (e *Engine) flowForCandidates(ctx context.Context, oracle *presenceOracle, s *bfScratch, sloc indoor.SLocID, list []*rtree.Entry[int32]) (float64, error) {
	clear(s.cand)
	for _, en := range list {
		pos := en.Item()
		s.cand[pos>>6] |= 1 << (pos & 63)
	}
	for w, word := range s.cand {
		for ; word != 0; word &= word - 1 {
			oracle.want(w<<6+bits.TrailingZeros64(word), true)
		}
	}
	if err := oracle.compute(ctx, true); err != nil {
		return 0, err
	}
	cell := e.space.CellOfSLoc(sloc)
	flow := 0.0
	for w, word := range s.cand {
		for ; word != 0; word &= word - 1 {
			if sum := oracle.summaries[w<<6+bits.TrailingZeros64(word)]; sum != nil {
				flow += sum.Presence(cell, e.opts.Presence)
			}
		}
	}
	return flow, nil
}
