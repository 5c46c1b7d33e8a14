package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"tkplq/internal/geom"
	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/parts"
	"tkplq/internal/rtree"
	"tkplq/internal/sim"
)

// Tests of what Best-First shares between searches (bestfirst.go): the rank
// index in a cached window's slot, the pooled scratch and the typed heap. None of them may change an answer or a work counter.

// rankIndexData is a small fleet in the default two-floor building: 86
// S-locations and 30 objects (one RC item per floor an object visits) make RQ
// and RC two levels deep each, so the join descends both trees.
func rankIndexData(t testing.TB) (*indoor.Space, []iupt.Record) {
	t.Helper()
	b, err := sim.BuildingByName("syn")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sim.CLIRecords(b, "", "", 30, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	return b.Space, recs
}

func allSLocs(space *indoor.Space) []indoor.SLocID {
	out := make([]indoor.SLocID, space.NumSLocations())
	for i := range out {
		out[i] = indoor.SLocID(i)
	}
	return out
}

// TestBestFirstRankIndexDifferential: over an in-memory and a partitioned
// table, an engine that shares the rank index answers every ask exactly as
// one that builds it per call (Query.DisableCache) and as Nested-Loop does —
// results bit for bit, work counters equal — while the asks walk the slot
// through a hit, replacements, a pruning subset, a permuted order, both ends
// of k, the per-query overrides and two moves of the window's identity.
func TestBestFirstRankIndexDifferential(t *testing.T) {
	space, recs := rankIndexData(t)
	all := allSLocs(space)
	const ts, te = 100, 500
	ctx := context.Background()

	for _, layout := range []string{"memory", "partitioned"} {
		t.Run(layout, func(t *testing.T) {
			tb := iupt.NewTable()
			ingest := func(batch []iupt.Record) {
				for _, rec := range batch {
					tb.Append(rec)
				}
			}
			var seal func()
			if layout == "partitioned" {
				store, backed, err := parts.Open(parts.Options{Dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				tb = backed
				ingest = func(batch []iupt.Record) {
					if err := store.AppendBatch(batch); err != nil {
						t.Fatal(err)
					}
					for _, rec := range batch {
						tb.Append(rec)
					}
				}
				seal = func() {
					if err := store.Seal(); err != nil {
						t.Fatal(err)
					}
				}
				// Two sealed partitions and a head, all inside the window.
				ingest(recs[:len(recs)/3])
				seal()
				ingest(recs[len(recs)/3 : 2*len(recs)/3])
				seal()
				ingest(recs[2*len(recs)/3:])
			} else {
				ingest(recs)
			}

			shared := NewEngine(space, Options{Workers: 1})
			perCall := NewEngine(space, Options{Workers: 1}) // asked with the cache bypassed
			slot := func() *rankIndex {
				en := shared.cache.get(windowKey{table: tb, ts: ts, te: te})
				if en == nil {
					return nil
				}
				return en.rank.Load()
			}
			ask := func(label string, q Query) *Response {
				t.Helper()
				q.Kind, q.Algorithm, q.Ts, q.Te = KindTopK, AlgoBestFirst, ts, te
				got, err := shared.Do(ctx, tb, q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, err := perCall.Do(ctx, tb, uncached(q))
				if err != nil {
					t.Fatalf("%s (per call): %v", label, err)
				}
				assertSameResponse(t, label+" vs per-call", want, got)
				q.Algorithm = AlgoNestedLoop
				nl, err := perCall.Do(ctx, tb, uncached(q))
				if err != nil {
					t.Fatalf("%s (nested-loop): %v", label, err)
				}
				assertSameResponse(t, label+" vs nested-loop", nl, got)
				g, w := got.Stats, want.Stats
				if g.HeapPops != w.HeapPops || g.ObjectsTotal != w.ObjectsTotal || g.ObjectsComputed != w.ObjectsComputed ||
					g.SampleSetsOriginal != w.SampleSetsOriginal || g.SampleSetsReduced != w.SampleSetsReduced {
					t.Errorf("%s: work differs from a per-call search:\n shared   %+v\n per call %+v", label, g, w)
				}
				// A pool override fans the per-call engine's reductions out,
				// which the shared engine no longer has to compute.
				if q.Workers == 0 && g.Workers != w.Workers {
					t.Errorf("%s: Workers %d, per call %d", label, g.Workers, w.Workers)
				}
				return got
			}

			first := ask("first ask", Query{K: 10, SLocs: all})
			built := slot()
			if built == nil || !slices.Equal(built.slocs, all) {
				t.Fatal("the first search left no rank index for its query set in the window's slot")
			}
			if first.Stats.ObjectsComputed == 0 || first.Stats.HeapPops == 0 {
				t.Fatalf("degenerate search: %+v", first.Stats)
			}

			// The same set again builds no tree: RQ and RC are the slot's.
			ask("same set again", Query{K: 10, SLocs: all})
			if slot() != built {
				t.Error("a repeated query set rebuilt the window's rank index")
			}

			// A subset prunes objects by PSL∩Q: its RC is smaller, and takes
			// the slot. Alternating the two keeps both right.
			wing := all[:4]
			ask("subset", Query{K: 3, SLocs: wing})
			pruned := slot()
			if pruned == built || !slices.Equal(pruned.slocs, wing) {
				t.Fatal("a different query set did not replace the slot")
			}
			if pruned.rc.Len() >= built.rc.Len() {
				t.Errorf("subset RC holds %d items, full set %d: nothing was pruned", pruned.rc.Len(), built.rc.Len())
			}
			ask("full set after subset", Query{K: 10, SLocs: all})
			ask("subset after full set", Query{K: 3, SLocs: wing})

			// A permuted caller order is its own bulk load (and pop count),
			// with the same answer.
			permuted := slices.Clone(all)
			rand.New(rand.NewSource(9)).Shuffle(len(permuted), func(i, j int) { permuted[i], permuted[j] = permuted[j], permuted[i] })
			assertSameResponse(t, "permuted vs caller order", first, ask("permuted order", Query{K: 10, SLocs: permuted}))

			ask("k = 1", Query{K: 1, SLocs: all})
			full := ask("k = |Q|", Query{K: len(all), SLocs: all})
			if len(full.Results) != len(all) || full.Results[len(all)-1].Flow != 0 {
				t.Errorf("k = |Q| returned %d results ending in flow %v, want every location down to the zero flows",
					len(full.Results), full.Results[len(full.Results)-1].Flow)
			}

			ask("workers override", Query{K: 10, SLocs: all, Workers: 4})
			before := slot()
			ask("cache bypass", Query{K: 10, SLocs: all, DisableCache: true})
			if slot() != before {
				t.Error("a query that bypasses the cache touched the window's slot")
			}

			// The identity moves: a record into the window, then a seal over
			// it. Each stores a new entry, so the index is rebuilt from the
			// new reductions.
			extra := recs[len(recs)/2]
			extra.OID, extra.T = 9000, 300
			ingest([]iupt.Record{extra})
			after := ask("after ingest into the window", Query{K: 10, SLocs: all})
			if after.Stats.ObjectsTotal != first.Stats.ObjectsTotal+1 {
				t.Errorf("%d objects after the ingest, %d before", after.Stats.ObjectsTotal, first.Stats.ObjectsTotal)
			}
			rebuilt := slot()
			if rebuilt == before || rebuilt.rc.Len() <= before.rc.Len() {
				t.Error("an ingest into the window left the old rank index in place")
			}
			if seal != nil {
				seal()
				ask("after a seal over the window", Query{K: 10, SLocs: all})
				if slot() == rebuilt {
					t.Error("a seal over the window left the old rank index in place")
				}
			}
		})
	}
}

// TestBestFirstRankIndexConcurrent: searches with different query sets share
// one cached window, so they replace each other's index in its slot; each
// keeps the one it loaded or built. Run under -race.
func TestBestFirstRankIndexConcurrent(t *testing.T) {
	space, recs := rankIndexData(t)
	tb := iupt.NewTable()
	for _, rec := range recs {
		tb.Append(rec)
	}
	all := allSLocs(space)
	sets := [][]indoor.SLocID{all, all[:len(all)/2], all[len(all)/3:]}
	ctx := context.Background()
	perCall := NewEngine(space, Options{Workers: 1})
	want := make([]*Response, len(sets))
	for i, q := range sets {
		var err error
		if want[i], err = perCall.Do(ctx, tb, uncached(Query{Algorithm: AlgoBestFirst, K: 5, Te: 600, SLocs: q})); err != nil {
			t.Fatal(err)
		}
	}
	shared := NewEngine(space, Options{Workers: 2})
	var wg sync.WaitGroup
	for g := range sets {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				// Coalescing off: every ask searches for itself.
				got, err := shared.Do(ctx, tb, Query{Algorithm: AlgoBestFirst, K: 5, Te: 600, SLocs: sets[g], DisableCoalescing: true})
				if err != nil {
					t.Error(err)
					return
				}
				if !resultsIdentical(got.Results, want[g].Results) || got.Stats.HeapPops != want[g].Stats.HeapPops {
					t.Errorf("set %d ask %d: %v after %d pops, want %v after %d", g, i, got.Results, got.Stats.HeapPops, want[g].Results, want[g].Stats.HeapPops)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBestFirstHeapOrder: whatever the heap does with its slice, entries pop
// in the documented total order — upper bound descending; on a tie the
// unconfirmed before the confirmed, unconfirmed by arrival, confirmed by
// ascending S-location — and a vacated slot holds nothing.
func TestBestFirstHeapOrder(t *testing.T) {
	const n = 300
	items := make([]rtree.BulkItem[indoor.SLocID], n)
	for i := range items {
		items[i] = rtree.BulkItem[indoor.SLocID]{Rect: geom.R(float64(i), 0, float64(i)+1, 1), Item: indoor.SLocID(i)}
	}
	var leaves []*rtree.Entry[indoor.SLocID]
	var walk func(*rtree.Node[indoor.SLocID])
	walk = func(nd *rtree.Node[indoor.SLocID]) {
		for i := 0; i < nd.Len(); i++ {
			if en := nd.Entry(i); en.IsLeafEntry() {
				leaves = append(leaves, en)
			} else {
				walk(en.Child())
			}
		}
	}
	walk(rtree.BulkLoad(rtree.DefaultMaxEntries, items).Root())

	rng := rand.New(rand.NewSource(17))
	rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
	var h bfHeap
	var pushed []bfEntry
	for seq, leaf := range leaves {
		// Four distinct bounds over 300 entries: nearly every comparison ties.
		en := bfEntry{ub: float64(rng.Intn(4)), qEntry: leaf, flowDone: rng.Intn(2) == 0, seq: seq}
		pushed = append(pushed, en)
		h.push(en)
	}
	slices.SortFunc(pushed, func(a, b bfEntry) int {
		switch {
		case a.ub != b.ub:
			return int(b.ub - a.ub)
		case a.flowDone != b.flowDone:
			if a.flowDone {
				return 1
			}
			return -1
		case a.flowDone:
			return int(a.qEntry.Item()) - int(b.qEntry.Item())
		}
		return a.seq - b.seq
	})
	for i, want := range pushed {
		got := h.pop()
		if got.ub != want.ub || got.flowDone != want.flowDone || got.qEntry != want.qEntry || got.seq != want.seq {
			t.Fatalf("pop %d: ub %v done %v sloc %d seq %d, want ub %v done %v sloc %d seq %d", i,
				got.ub, got.flowDone, got.qEntry.Item(), got.seq, want.ub, want.flowDone, want.qEntry.Item(), want.seq)
		}
	}
	if len(h) != 0 {
		t.Fatalf("%d entries left after popping all", len(h))
	}
	for i, en := range h[:cap(h)] {
		if en.qEntry != nil {
			t.Fatalf("vacated slot %d still points at an R-tree entry", i)
		}
	}
}

// countdownCtx reports cancellation from its n-th Err call on: it cancels a
// search at a chosen check, deterministically.
type countdownCtx struct {
	context.Context
	left *atomic.Int64
}

func (c countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestBestFirstScratchReleased: whatever scratch the engine's pool hands out
// after a search — finished, or canceled at any of its checks — is cleared of
// every pointer, so an idle pool pins no summary and no tree of a window the
// cache has evicted. A sync.Pool may drop a Put or hand out a new scratch;
// that one has nothing to inspect, so the test only requires that some used
// scratch came back. A bypassed search and Naive over sealed partitions,
// canceled at their checks, leave the window and output pools cleared too.
func TestBestFirstScratchReleased(t *testing.T) {
	space, recs := rankIndexData(t)
	tb := iupt.NewTable()
	for _, rec := range recs {
		tb.Append(rec)
	}
	all := allSLocs(space)
	eng := NewEngine(space, Options{Workers: 1})
	used := 0
	pooled := func(label string) {
		t.Helper()
		s := eng.getBFScratch(0)
		defer eng.putBFScratch(s)
		if cap(s.heap) > 0 && cap(s.lists) > 0 && cap(s.cand) > 0 {
			used++
		}
		if len(s.heap) != 0 || len(s.lists) != 0 || s.seq != 0 {
			t.Errorf("%s: scratch not reset: %d heap entries, %d list slots, seq %d", label, len(s.heap), len(s.lists), s.seq)
		}
		for _, en := range s.heap[:cap(s.heap)] {
			if en.qEntry != nil || en.list != nil {
				t.Fatalf("%s: a pooled heap slot holds a pointer", label)
			}
		}
		for _, en := range s.lists[:cap(s.lists)] {
			if en != nil {
				t.Fatalf("%s: the pooled arena holds an R-tree entry", label)
			}
		}
		o := &s.oracle
		if o.eng != nil || o.en != nil || o.query != nil || o.win.OIDs != nil || o.memo != nil || len(o.reductions) != 0 || len(o.summaries) != 0 || len(o.pending) != 0 {
			t.Fatalf("%s: the pooled oracle was not reset", label)
		}
		for i := range cap(o.reductions) {
			if o.reductions[:cap(o.reductions)][i] != nil {
				t.Fatalf("%s: the pooled oracle holds a reduction", label)
			}
		}
		for i := range cap(o.summaries) {
			if o.summaries[:cap(o.summaries)][i] != nil {
				t.Fatalf("%s: the pooled oracle holds a summary", label)
			}
		}
	}
	if _, _, err := eng.topkBestFirst(context.Background(), tb, all, 10, 0, 600); err != nil {
		t.Fatal(err)
	}
	pooled("finished search")
	canceled := 0
	for n := int64(0); ; n++ {
		left := atomic.Int64{}
		left.Store(n)
		forgetAnswers(eng) // the canceled asks search: the slot has no answer to replay
		_, _, err := eng.topkBestFirst(countdownCtx{context.Background(), &left}, tb, all, 10, 0, 600)
		if err == nil {
			break
		}
		if err != context.Canceled {
			t.Fatal(err)
		}
		canceled++
		pooled("canceled search")
	}
	if canceled < 10 {
		t.Fatalf("only %d cancellation points reached: the search loop was not exercised", canceled)
	}
	if used == 0 {
		t.Fatalf("%d searches and the pool never handed back a scratch one of them used", canceled+1)
	}

	// A question with the cache bypassed and a Naive one over sealed
	// partitions read their window over slabs into pooled memory: canceled
	// at the first check — an already-canceled context — or at a later one,
	// each returns ctx.Err() and hands every pooled buffer back cleared.
	sealed := layoutTable(t, "partitioned", recs)
	for _, q := range []Query{
		uncached(Query{Algorithm: AlgoBestFirst, K: 10, Te: 600, SLocs: all}),
		{Algorithm: AlgoNaive, K: 3, Te: 600, SLocs: all[:4]},
	} {
		points := 0
		for n := int64(0); ; n = 2*n + 1 {
			label := fmt.Sprintf("%v, canceled at check %d", q.Algorithm, n)
			left := atomic.Int64{}
			left.Store(n)
			_, err := eng.Do(countdownCtx{context.Background(), &left}, sealed, q)
			if err == nil && n > 0 {
				break
			}
			if err != context.Canceled {
				t.Fatalf("%s: err = %v, want context.Canceled", label, err)
			}
			pooled(label)
			privateMemCleared(t, label)
			points++
		}
		if points < 4 {
			t.Errorf("%v: only %d cancellation points reached", q.Algorithm, points)
		}
	}
}

// privateMemCleared fails when the window memory or the output arena the
// pools hand out next still references a window or a reduction.
func privateMemCleared(t *testing.T, label string) {
	t.Helper()
	m := winMemPool.Get().(*winMem)
	defer winMemPool.Put(m)
	if len(m.OIDs)+len(m.Seqs)+len(m.Sets)+len(m.lists)+len(m.pieces)+len(m.samples) != 0 {
		t.Fatalf("%s: the pooled window memory was not reset", label)
	}
	for _, seq := range m.Seqs[:cap(m.Seqs)] {
		if seq != nil {
			t.Fatalf("%s: the pooled window memory holds a sequence", label)
		}
	}
	for _, set := range m.Sets[:cap(m.Sets)] {
		if set.Samples != nil {
			t.Fatalf("%s: the pooled window memory holds a sample set", label)
		}
	}
	for _, ps := range m.lists[:cap(m.lists)] {
		if ps != nil {
			t.Fatalf("%s: the pooled window memory holds a piece list", label)
		}
	}
	for _, p := range m.pieces[:cap(m.pieces)] {
		if p.s != nil {
			t.Fatalf("%s: the pooled window memory holds a slab", label)
		}
	}
	a := outArenaPool.Get().(*outArena)
	defer outArenaPool.Put(a)
	for _, red := range a.reds[:cap(a.reds)] {
		if red.Seq != nil || red.PSLs != nil || red.Cells != nil {
			t.Fatalf("%s: the pooled output arena holds a reduction", label)
		}
	}
	for _, set := range a.sets[:cap(a.sets)] {
		if set != nil {
			t.Fatalf("%s: the pooled output arena holds a sample set", label)
		}
	}
}

// TestBestFirstHotAllocBudget pins what a Best-First query over a cached
// window allocates once both trees are shared and the scratch is pooled: the
// driver's and the oracle's per-query bookkeeping — its columns are two
// slices by window position, which the search reads its summaries from — and
// the answer, and nothing per location or per heap push. (When every search
// built two trees, a map and a sorted slice per location and boxed every
// push, BenchmarkTopKAlgorithms/BestFirst read 375 per call; with the
// oracle's two per-query object maps and a sorted copy of the window's ids,
// this test read 27.) The slot's answer is cleared before every ask, so each
// one searches (TestBestFirstReplayAllocBudget pins the replay).
func TestBestFirstHotAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	space, recs := rankIndexData(t)
	tb := iupt.NewTable()
	for _, rec := range recs {
		tb.Append(rec)
	}
	eng := NewEngine(space, Options{})
	q := Query{Algorithm: AlgoBestFirst, K: 10, Te: 600, SLocs: allSLocs(space)}
	ctx := context.Background()
	ask := func() {
		forgetAnswers(eng)
		if _, err := eng.Do(ctx, tb, q); err != nil {
			t.Fatal(err)
		}
	}
	ask() // materialize the window, fill the memo, build both trees
	ask() // grow the pooled scratch to the search's size
	if allocs := testing.AllocsPerRun(100, ask); allocs > 15 {
		t.Errorf("hot Best-First query allocates %v/op, budget 15", allocs)
	}
}

// TestBestFirstReplayAllocBudget pins what a repeated Best-First question
// over a cached window allocates when its slot answers it: the driver's
// per-query bookkeeping and the caller's copy of the answer — no oracle and
// no scratch. (12 while the query-set check built a map per query and a
// leader with no follower copied its own results.)
func TestBestFirstReplayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	space, recs := rankIndexData(t)
	tb := iupt.NewTable()
	tb.Append(recs...)
	eng := NewEngine(space, Options{})
	q := Query{Algorithm: AlgoBestFirst, K: 10, Te: 600, SLocs: allSLocs(space)}
	ctx := context.Background()
	ask := func() {
		if _, err := eng.Do(ctx, tb, q); err != nil {
			t.Fatal(err)
		}
	}
	ask() // materialize the window, fill the memo, build both trees, store the answer
	held := slotAnswer(eng, tb, 0, 600)
	if held == nil {
		t.Fatal("the search stored no answer in the window's slot")
	}
	allocs := testing.AllocsPerRun(100, ask)
	if slotAnswer(eng, tb, 0, 600) != held {
		t.Fatal("a repeated question searched instead of replaying")
	}
	if allocs > 8 {
		t.Errorf("replayed Best-First query allocates %v/op, budget 8", allocs)
	}
}

// BenchmarkBestFirstHotSearch times Algorithm 4 over a fully memoized window
// with both trees in the slot and a warm scratch pool: the slot's answer is
// cleared before every ask, so each one searches. (A repeated question is
// otherwise replayed, which BenchmarkTopKAlgorithms/BestFirst times.)
func BenchmarkBestFirstHotSearch(b *testing.B) {
	space, recs := rankIndexData(b)
	tb := iupt.NewTable()
	tb.Append(recs...)
	eng := NewEngine(space, Options{})
	q := Query{Algorithm: AlgoBestFirst, K: 10, Te: 600, SLocs: allSLocs(space)}
	ctx := context.Background()
	if _, err := eng.Do(ctx, tb, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		forgetAnswers(eng)
		if _, err := eng.Do(ctx, tb, q); err != nil {
			b.Fatal(err)
		}
	}
}
