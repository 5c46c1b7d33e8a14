package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/parts"
)

// Tests of the windows the cache does not keep (windowcache.go): admission,
// evaluation in recycled memory, and what the cache charges for what it keeps.

// layoutTable returns the records on an in-memory table or on a partitioned
// one: two sealed partitions and a head.
func layoutTable(t *testing.T, layout string, recs []iupt.Record) *iupt.Table {
	t.Helper()
	if layout == "memory" {
		tb := iupt.NewTable()
		for _, rec := range recs {
			tb.Append(rec)
		}
		return tb
	}
	store, tb, err := parts.Open(parts.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	for i, batch := range [][]iupt.Record{recs[:len(recs)/3], recs[len(recs)/3 : 2*len(recs)/3], recs[2*len(recs)/3:]} {
		if err := store.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		for _, rec := range batch {
			tb.Append(rec)
		}
		if i < 2 {
			if err := store.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tb
}

// distinctWindows returns n distinct windows inside [0, 600].
func distinctWindows(rng *rand.Rand, n int) [][2]iupt.Time {
	seen := make(map[[2]iupt.Time]bool, n)
	var out [][2]iupt.Time
	for len(out) < n {
		ts := iupt.Time(rng.Intn(550))
		w := [2]iupt.Time{ts, ts + 10 + iupt.Time(rng.Intn(40))}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// TestPrivateWindowDifferential: over 200 back-to-back distinct windows, on
// an in-memory and a partitioned table and at 1 and 4 workers, an engine whose
// full one-window cache admits none of them (every evaluation private, in
// recycled memory) answers exactly as one that keeps every window, as one
// asked with the cache bypassed and as one asked over a flat copy of the
// table — results, flows, partial rows and work counters — for Best-First,
// Nested-Loop and Naive top-k, DoPartial and presence. Every answer the
// private engine gave is still bit-identical at the end, after later
// evaluations reused the memory its windows and reductions lived in.
func TestPrivateWindowDifferential(t *testing.T) {
	fig := indoor.Figure1Space()
	space, all := fig.Space, fig.SLocs[:]
	recs := randTable(rand.New(rand.NewSource(36)), fig, 8, 600).SortedRecords()
	ctx := context.Background()
	kinds := []string{"bf", "nl", "naive", "partial", "presence"}
	query := func(kind string, w [2]iupt.Time, oid iupt.ObjectID) Query {
		q := Query{Kind: KindTopK, Algorithm: AlgoBestFirst, K: 3, Ts: w[0], Te: w[1], SLocs: all}
		switch kind {
		case "nl", "partial":
			q.Algorithm, q.K = AlgoNestedLoop, len(all)
		case "naive":
			q.Algorithm, q.K, q.SLocs = AlgoNaive, 2, all[:4]
		case "presence":
			q = Query{Kind: KindPresence, OID: oid, Ts: w[0], Te: w[1], SLocs: all[4:5]}
		}
		return q
	}
	for _, layout := range []string{"memory", "partitioned"} {
		tb := layoutTable(t, layout, recs)
		flat := flatCopy(tb)
		oids := tb.Objects()
		for _, workers := range []int{1, 4} {
			at := fmt.Sprintf("%s workers=%d", layout, workers)
			kept := NewEngine(space, Options{Workers: workers})
			kept.cache.cap = 1 << 20 // room for every window: all kept
			private := NewEngine(space, Options{Workers: workers})
			private.cache.cap = 1                                   // full after the first window: none admitted
			bypassed := NewEngine(space, Options{Workers: workers}) // asked with the cache bypassed
			plain := NewEngine(space, Options{Workers: workers})    // asked over the flat copy
			engines := []*Engine{private, kept, bypassed, plain}
			tables := []*iupt.Table{tb, tb, tb, flat}

			type answer struct {
				resp *Response
				part *Partial
				snap string // the answer as first returned, in full
			}
			var answers []answer
			var throughCache int64 // every kind but Naive asks the cache
			windows := distinctWindows(rand.New(rand.NewSource(int64(workers))), 201)
			for i, w := range windows {
				kind := kinds[i%len(kinds)]
				q := query(kind, w, oids[i%len(oids)])
				asks := []Query{q, q, uncached(q), q}
				label := fmt.Sprintf("%s window %d %v %s", at, i, w, kind)
				if kind != "naive" {
					throughCache++
				}
				if kind == "partial" {
					var got [4]*Partial
					for j, eng := range engines {
						p, err := eng.DoPartial(ctx, tables[j], asks[j])
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						got[j] = p
					}
					for j := 1; j < len(got); j++ {
						if !reflect.DeepEqual(got[0].OIDs, got[j].OIDs) || !reflect.DeepEqual(got[0].Rows, got[j].Rows) || got[0].Stats.ObjectsComputed != got[j].Stats.ObjectsComputed {
							t.Fatalf("%s: the private partial differs from engine %d's", label, j)
						}
					}
					answers = append(answers, answer{part: got[0], snap: fmt.Sprintf("%+v", *got[0])})
					continue
				}
				var got [4]*Response
				for j, eng := range engines {
					resp, err := eng.Do(ctx, tables[j], asks[j])
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got[j] = resp
				}
				for j, name := range []string{"kept", "uncached", "flat"} {
					want := got[j+1]
					assertSameResponse(t, label+" vs "+name, want, got[0])
					if g, w := got[0].Stats, want.Stats; g.ObjectsTotal != w.ObjectsTotal || g.ObjectsComputed != w.ObjectsComputed || g.HeapPops != w.HeapPops || g.SampleSetsReduced != w.SampleSetsReduced {
						t.Fatalf("%s: private work %+v, %s %+v", label, g, name, w)
					}
				}
				if i > 0 && kind != "naive" {
					if st := got[0].Stats; st.CacheHits != 0 || st.CacheMisses != int64(st.ObjectsComputed) {
						t.Errorf("%s: a private window counted %d hits / %d misses over %d computed objects", label, st.CacheHits, st.CacheMisses, st.ObjectsComputed)
					}
				}
				answers = append(answers, answer{resp: got[0], snap: fmt.Sprintf("%+v", *got[0])})
			}
			for i, a := range answers {
				var now string
				if a.part != nil {
					now = fmt.Sprintf("%+v", *a.part)
				} else {
					now = fmt.Sprintf("%+v", *a.resp)
				}
				if now != a.snap {
					t.Fatalf("%s: answer %d changed after later evaluations:\n was %s\n now %s", at, i, a.snap, now)
				}
			}
			st := private.CacheStats()
			if st.WindowEntries != 1 {
				t.Errorf("%s: the private engine's cache holds %d windows, want the first one only", at, st.WindowEntries)
			}
			if st.WindowMisses != throughCache {
				t.Errorf("%s: %d window misses, want one per window through the cache (%d)", at, st.WindowMisses, throughCache)
			}
			// A bypassed query reads slabs, and builds them, but counts no
			// cache traffic.
			bst := bypassed.CacheStats()
			if bst.WindowEntries != 0 || bst.WindowHits != 0 || bst.WindowMisses != 0 || bst.Hits != 0 || bst.Misses != 0 {
				t.Errorf("%s: the bypassed engine counted cache traffic: %+v", at, bst)
			}
			if (bst.SlabBytes > 0) != (layout == "partitioned") {
				t.Errorf("%s: the bypassed engine holds %d slab bytes", at, bst.SlabBytes)
			}
		}
	}
}

// TestWindowCacheAdmission walks one window through admission into a full
// cache: its first sighting is evaluated but not stored, yet counts a window
// miss and a presence miss per computed object; the second sighting is
// stored; the third hits. A window asked once after that store rotated a
// generation is not stored either, though the generation in use has room.
// Then 10 000 distinct windows sighted once leave the stored windows alone
// and the doorkeeper within its bound.
func TestWindowCacheAdmission(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(11))
	tb := randTable(rng, fig, 8, 40)
	eng := NewEngine(fig.Space, Options{Workers: 1})
	eng.cache.cap = 2
	c := eng.cache
	ask := func(w [2]iupt.Time) (*Response, CacheStats, CacheStats) {
		t.Helper()
		before := eng.CacheStats()
		resp, err := eng.Do(context.Background(), tb, Query{Kind: KindTopK, Algorithm: AlgoNestedLoop, K: 3, Ts: w[0], Te: w[1], SLocs: fig.SLocs[:]})
		if err != nil {
			t.Fatal(err)
		}
		return resp, before, eng.CacheStats()
	}
	stored := func(w [2]iupt.Time) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		key := windowKey{table: tb, ts: w[0], te: w[1]}
		_, cur := c.cur[key]
		_, prev := c.prev[key]
		return cur || prev
	}
	w1, w2, w3 := [2]iupt.Time{0, 9}, [2]iupt.Time{10, 19}, [2]iupt.Time{5, 30}
	ask(w1)
	ask(w2) // the current generation is full
	if !stored(w1) || !stored(w2) {
		t.Fatal("windows asked while the generation had room were not stored")
	}

	resp, before, after := ask(w3)
	if stored(w3) || after.WindowEntries != 2 {
		t.Errorf("first sighting: stored %v, %d windows cached, want it evaluated privately", stored(w3), after.WindowEntries)
	}
	st := resp.Stats
	if after.WindowMisses != before.WindowMisses+1 || after.WindowHits != before.WindowHits {
		t.Errorf("first sighting: window misses %d → %d, hits %d → %d, want one miss", before.WindowMisses, after.WindowMisses, before.WindowHits, after.WindowHits)
	}
	if st.ObjectsComputed == 0 || st.CacheMisses != int64(st.ObjectsComputed) || st.CacheHits != 0 || after.Misses != before.Misses+st.CacheMisses {
		t.Errorf("first sighting: %d hits / %d misses over %d computed objects, lifetime misses %d → %d", st.CacheHits, st.CacheMisses, st.ObjectsComputed, before.Misses, after.Misses)
	}

	_, before, after = ask(w3)
	if !stored(w3) || after.WindowMisses != before.WindowMisses+1 {
		t.Errorf("second sighting: stored %v, window misses %d → %d, want it materialized and stored", stored(w3), before.WindowMisses, after.WindowMisses)
	}

	resp, before, after = ask(w3)
	if st := resp.Stats; after.WindowHits != before.WindowHits+1 || st.CacheHits != int64(st.ObjectsComputed) || st.CacheMisses != 0 {
		t.Errorf("third sighting: window hits %d → %d, %d hits / %d misses over %d objects, want every lookup a hit", before.WindowHits, after.WindowHits, st.CacheHits, st.CacheMisses, st.ObjectsComputed)
	}

	// w3's store rotated a generation, so the one in use has room; a window
	// asked once is still not stored.
	oneShot := [2]iupt.Time{20, 39}
	if _, before, after = ask(oneShot); stored(oneShot) || after.WindowMisses != before.WindowMisses+1 {
		t.Errorf("first sighting after a rotation: stored %v, window misses %d → %d, want it evaluated privately", stored(oneShot), before.WindowMisses, after.WindowMisses)
	}
	c.mu.Lock()
	cur, prev := genKeys(c.cur), genKeys(c.prev)
	c.mu.Unlock()
	bound := 2 * doorkeeperScale * c.cap
	for i := 0; i < 10000; i++ {
		key := windowKey{table: tb, ts: iupt.Time(1000 + i), te: iupt.Time(2000 + i)}
		if c.admit(key) {
			t.Fatalf("distinct window %d was admitted into a full cache on its first sighting", i)
		}
		c.mu.Lock()
		n := len(c.seen) + len(c.seenPrev)
		c.mu.Unlock()
		if n > bound {
			t.Fatalf("after %d distinct windows the doorkeeper holds %d keys, bound %d", i+1, n, bound)
		}
	}
	c.mu.Lock()
	if !slices.Equal(genKeys(c.cur), cur) || !slices.Equal(genKeys(c.prev), prev) {
		t.Error("windows sighted once rotated the stored generations")
	}
	c.mu.Unlock()
}

// genKeys returns a generation's keys in a canonical order.
func genKeys(gen map[windowKey]*windowEntry) []windowKey {
	var out []windowKey
	for key := range gen {
		out = append(out, key)
	}
	slices.SortFunc(out, func(a, b windowKey) int {
		return cmp.Or(cmp.Compare(a.ts, b.ts), cmp.Compare(a.te, b.te))
	})
	return out
}

// TestWindowBytesChargesMemo: every value a cached window's memo stores is
// charged to the window, so WindowBytes is exactly the window's own estimate
// plus memoBytes of every filled slot plus the rank index — after a
// Best-First search stored reductions and some summaries, and again after a
// Nested-Loop pass upgraded every slot to a summary.
func TestWindowBytesChargesMemo(t *testing.T) {
	space, recs := rankIndexData(t)
	tb := layoutTable(t, "memory", recs)
	eng := NewEngine(space, Options{Workers: 1})
	ctx := context.Background()
	key := windowKey{table: tb, ts: 100, te: 500}
	want := func() int64 {
		c := eng.cache
		c.mu.Lock()
		en := c.cur[key]
		c.mu.Unlock()
		b := windowBytes(en.win)
		for i := range en.memo {
			b += memoBytes(en.memo.get(i))
		}
		if ri := en.rank.Load(); ri != nil {
			b += ri.bytes.Load()
		}
		return b
	}
	var last int64
	// Best-First over a few locations summarizes only its candidates; the
	// Nested-Loop pass over all of them upgrades the other slots.
	all := allSLocs(space)
	for _, q := range []Query{{Algorithm: AlgoBestFirst, K: 2, SLocs: all[:6]}, {Algorithm: AlgoNestedLoop, K: 10, SLocs: all}} {
		algo := q.Algorithm
		q.Ts, q.Te = key.ts, key.te
		if _, err := eng.Do(ctx, tb, q); err != nil {
			t.Fatal(err)
		}
		got := eng.CacheStats().WindowBytes
		if w := want(); got != w {
			t.Errorf("after %s: WindowBytes %d, want the window, memo and rank charges %d", algo, got, w)
		}
		if got <= last {
			t.Errorf("after %s: WindowBytes %d did not grow from %d", algo, got, last)
		}
		last = got
	}
}

// TestColdWindowAllocBudget: a Best-First query over a window of sealed
// partitions sighted for the first time, into a full cache, is evaluated in
// recycled memory: it allocates its answer, its summaries and its rank index,
// not the window's sequences or reductions. Measured on this fleet (30
// objects, a 400-unit window over three sealed partitions) on a 2-vCPU
// x86-64 box: about 650 KB per query when every such window was stored, 32 KB
// in recycled memory. The same question with the cache bypassed takes the
// same private read over slabs and is held to the same budget.
func TestColdWindowAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	space, recs := rankIndexData(t)
	store, tb, err := parts.Open(parts.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, batch := range [][]iupt.Record{recs[:len(recs)/3], recs[len(recs)/3 : 2*len(recs)/3], recs[2*len(recs)/3:]} {
		if err := store.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		for _, rec := range batch {
			tb.Append(rec)
		}
		if err := store.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	for _, bypass := range []bool{false, true} {
		eng := NewEngine(space, Options{Workers: 1})
		eng.cache.cap = 1
		ctx := context.Background()
		next := iupt.Time(0)
		ask := func() {
			// A window never asked before: [next, next+400] over all three parts.
			next++
			q := Query{Algorithm: AlgoBestFirst, K: 10, Ts: next, Te: next + 400, SLocs: allSLocs(space), DisableCache: bypass}
			if _, err := eng.Do(ctx, tb, q); err != nil {
				t.Fatal(err)
			}
		}
		for range 5 { // fill the cache, warm the pools
			ask()
		}
		// A collection would empty the pools mid-measurement; a pooled value
		// put back on one P and missed on another costs a round its arrays,
		// so the best of three rounds is taken.
		gc := debug.SetGCPercent(-1)
		const runs = 50
		perQuery := uint64(1 << 62)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				ask()
			}
			runtime.ReadMemStats(&after)
			perQuery = min(perQuery, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		debug.SetGCPercent(gc)
		t.Logf("a cold Best-First query (cache bypassed: %v) allocates %d bytes", bypass, perQuery)
		if perQuery > 96<<10 {
			t.Errorf("a cold Best-First query (cache bypassed: %v) allocates %d bytes, budget 96 KiB", bypass, perQuery)
		}
	}
}
