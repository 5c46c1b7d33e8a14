package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// Tests of the sharded concurrent evaluation pipeline and the presence/
// interval cache. The contract under test: for every algorithm and every
// worker count, rankings AND flows are bit-identical to the single-threaded
// path, and the cache changes wall-clock only — never results or the legacy
// work statistics.

func assertSameResults(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].SLoc != got[i].SLoc {
			t.Fatalf("%s: rank %d is S-location %d, want %d", label, i, got[i].SLoc, want[i].SLoc)
		}
		if want[i].Flow != got[i].Flow { // bitwise: the pipeline guarantees it
			t.Fatalf("%s: rank %d flow %v, want %v (must be bit-identical)",
				label, i, got[i].Flow, want[i].Flow)
		}
	}
}

// TestParallelTopKMatchesSequential: all three algorithms, several worker
// counts, cache on and off — rankings and flows must match the sequential
// run bit for bit, and the work statistics must be unchanged.
func TestParallelTopKMatchesSequential(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(77))
	tb := randTable(rng, fig, 24, 60)
	q := fig.SLocs[:]
	k := len(q)
	ctx := context.Background()

	for _, algo := range []Algorithm{AlgoNaive, AlgoNestedLoop, AlgoBestFirst} {
		// The single-threaded, cache-free reference path.
		ref := NewEngine(fig.Space, Options{Workers: 1})
		want, wantStats, err := ranked(ref.Do(ctx, tb, uncached(Query{Kind: KindTopK, Algorithm: algo, K: k, Te: 60, SLocs: q})))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8, 0} {
			for _, disableCache := range []bool{false, true} {
				label := fmt.Sprintf("%v/workers=%d/cacheOff=%v", algo, workers, disableCache)
				eng := NewEngine(fig.Space, Options{Workers: workers})
				query := Query{Kind: KindTopK, Algorithm: algo, K: k, Te: 60, SLocs: q, DisableCache: disableCache}
				got, gotStats, err := ranked(eng.Do(ctx, tb, query))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertSameResults(t, label, want, got)
				if gotStats.ObjectsTotal != wantStats.ObjectsTotal ||
					gotStats.ObjectsComputed != wantStats.ObjectsComputed ||
					gotStats.PathsEnumerated != wantStats.PathsEnumerated ||
					gotStats.SampleSetsOriginal != wantStats.SampleSetsOriginal ||
					gotStats.SampleSetsReduced != wantStats.SampleSetsReduced ||
					gotStats.SequenceBreaks != wantStats.SequenceBreaks {
					t.Fatalf("%s: work stats differ: got %+v want %+v", label, gotStats, wantStats)
				}
				// Re-running on the same (cached) engine must reproduce the
				// exact same answer.
				again, _, err := ranked(eng.Do(ctx, tb, query))
				if err != nil {
					t.Fatalf("%s: rerun: %v", label, err)
				}
				assertSameResults(t, label+"/rerun", want, again)
			}
		}
	}
}

// TestParallelFlowAndDensityMatchSequential covers the remaining query
// surfaces: single-location Flow and the density variant.
func TestParallelFlowAndDensityMatchSequential(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(91))
	tb := randTable(rng, fig, 20, 50)
	q := fig.SLocs[:]

	ctx := context.Background()
	ref := NewEngine(fig.Space, Options{Workers: 1}) // asked with the cache bypassed
	par := NewEngine(fig.Space, Options{Workers: 6})

	for _, s := range q {
		resp, err := ref.Do(ctx, tb, uncached(Query{Kind: KindFlow, SLocs: []indoor.SLocID{s}, Te: 50}))
		if err != nil {
			t.Fatal(err)
		}
		want := resp.Flow
		got, stats := par.Flow(tb, s, 0, 50)
		if want != got {
			t.Fatalf("Flow(%d): parallel %v, sequential %v", s, got, want)
		}
		if stats.Workers < 1 {
			t.Fatalf("Flow(%d): Workers stat = %d", s, stats.Workers)
		}
	}

	wantD, _, err := ranked(ref.Do(ctx, tb, uncached(Query{Kind: KindDensity, K: len(q), Te: 50, SLocs: q})))
	if err != nil {
		t.Fatal(err)
	}
	gotD, _, err := par.TopKDensity(tb, q, len(q), 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "density", wantD, gotD)
}

// TestPresenceCacheReusesWork: a second identical query is served from the
// cache (all summaries hit), with identical flows.
func TestPresenceCacheReusesWork(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(13))
	tb := randTable(rng, fig, 15, 40)
	q := fig.SLocs[:]
	var eng *Engine // the Nested-Loop engine, kept for the window checks below

	for _, algo := range []Algorithm{AlgoBestFirst, AlgoNestedLoop} {
		eng = NewEngine(fig.Space, Options{Workers: 4})
		first, st1, err := eng.TopK(tb, q, len(q), 0, 40, algo)
		if err != nil {
			t.Fatal(err)
		}
		if st1.CacheHits != 0 {
			t.Errorf("%v cold query: CacheHits = %d, want 0", algo, st1.CacheHits)
		}
		if st1.CacheMisses != int64(st1.ObjectsComputed) {
			t.Errorf("%v cold query: CacheMisses = %d, want %d", algo, st1.CacheMisses, st1.ObjectsComputed)
		}
		if st1.Workers != 4 {
			t.Errorf("%v cold query: Workers = %d, want 4 (every object is work to fan out)", algo, st1.Workers)
		}

		second, st2, err := eng.TopK(tb, q, len(q), 0, 40, algo)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "cached rerun", first, second)
		if st2.CacheHits != int64(st2.ObjectsComputed) || st2.CacheMisses != 0 {
			t.Errorf("%v warm query: hits %d misses %d, want %d hits 0 misses",
				algo, st2.CacheHits, st2.CacheMisses, st2.ObjectsComputed)
		}
		// A fully memoized query has no work to fan out: memo hits resolve on
		// the calling goroutine and no worker is started for them.
		if st2.Workers != 1 {
			t.Errorf("%v warm query: Workers = %d, want 1", algo, st2.Workers)
		}
	}

	cs := eng.CacheStats()
	if cs.Entries == 0 || cs.Hits == 0 {
		t.Errorf("CacheStats = %+v, want live entries and hits", cs)
	}

	// An overlapping window reuses objects whose visible records are
	// unchanged; a disjoint window cannot hit.
	_, st3, err := eng.TopK(tb, q, len(q), 0, 45, AlgoNestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	if st3.CacheHits+st3.CacheMisses != int64(st3.ObjectsComputed) {
		t.Errorf("overlap query: hits %d + misses %d != computed %d",
			st3.CacheHits, st3.CacheMisses, st3.ObjectsComputed)
	}
}

// TestNaiveBypassesCache: Naive exists to measure repeated work, so it must
// not share summaries through the engine cache — within a query or across
// queries.
func TestNaiveBypassesCache(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(29))
	tb := randTable(rng, fig, 10, 30)
	eng := NewEngine(fig.Space, Options{})
	_, st, err := eng.TopK(tb, fig.SLocs[:], len(fig.SLocs), 0, 30, AlgoNaive)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Errorf("naive touched the cache: hits %d, misses %d", st.CacheHits, st.CacheMisses)
	}
	if cs := eng.CacheStats(); cs.Entries != 0 {
		t.Errorf("naive populated the cache: %+v", cs)
	}
}

// TestCacheDisabled: queries that bypass the cache never count cache traffic.
func TestCacheDisabled(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(31))
	tb := randTable(rng, fig, 8, 25)
	eng := NewEngine(fig.Space, Options{})
	for i := 0; i < 2; i++ {
		_, st, err := ranked(eng.Do(context.Background(), tb, uncached(Query{Kind: KindTopK, Algorithm: AlgoNestedLoop, K: 3, Te: 25, SLocs: fig.SLocs[:]})))
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHits != 0 || st.CacheMisses != 0 {
			t.Errorf("run %d: cache counters on disabled cache: %+v", i, st)
		}
	}
	cs := eng.CacheStats()
	if cs.Entries != 0 || cs.Hits != 0 || cs.Misses != 0 || cs.WindowEntries != 0 || cs.WindowHits != 0 || cs.WindowMisses != 0 {
		t.Errorf("CacheStats on disabled cache = %+v, want zero cache fields", cs)
	}
	// The request coalescer is independent of the presence cache: the two
	// sequential queries above still count as (uncoalesced) flights.
	if cs.Coalesced != 0 || cs.Flights != 2 {
		t.Errorf("coalescer counters = %d coalesced / %d flights, want 0/2", cs.Coalesced, cs.Flights)
	}
}

// TestMonitorObserveInvalidatesCache: an announced ingest makes the monitor's
// retained result stale — the only cached state a feed has, since monitors
// neither read nor fill the engine's cache — and the next evaluation reflects
// the new record exactly as a fresh engine does.
func TestMonitorObserveInvalidatesCache(t *testing.T) {
	fig := indoor.Figure1Space()
	eng := NewEngine(fig.Space, Options{})
	live := &liveTable{eng: eng, tb: iupt.NewTable()}
	mon := live.monitor(fig.SLocs[:], 3, 100)
	set := func(p indoor.PLocID) iupt.SampleSet { return iupt.SampleSet{{Loc: p, Prob: 1}} }
	before := []iupt.Record{
		{OID: 1, T: 10, Samples: set(fig.PLocs[0])},
		{OID: 1, T: 12, Samples: set(fig.PLocs[1])},
		{OID: 2, T: 11, Samples: set(fig.PLocs[2])},
	}
	live.ingest(before...)

	u1 := current(mon)
	if u1.Stats.CacheHits != 0 || u1.Stats.CacheMisses != 0 {
		t.Errorf("monitor evaluation reported cache traffic: %+v", u1.Stats)
	}
	if cs := eng.CacheStats(); cs.Entries != 0 || cs.WindowEntries != 0 || cs.Misses != 0 {
		t.Errorf("monitor evaluation filled the engine cache: %+v", cs)
	}

	// No new record: served from the monitor's retained result.
	u1b := current(mon)
	assertSameResults(t, "monitor retained result", u1.Results, u1b.Results)
	if u1b.Stats != u1.Stats {
		t.Errorf("retained result returned different stats: %+v vs %+v", u1b.Stats, u1.Stats)
	}

	// The announcement makes the retained result stale: the monitor
	// recomputes and sees the new record, exactly as a fresh engine does.
	live.ingest(iupt.Record{OID: 1, T: 11, Samples: set(fig.PLocs[3])})
	u2 := current(mon)
	ref := NewEngine(fig.Space, Options{Workers: 1})
	want, _, err := ranked(ref.Do(context.Background(), live.tb, uncached(Query{Kind: KindTopK, Algorithm: AlgoBestFirst, K: 3, Ts: u2.Ts, Te: u2.Te, SLocs: fig.SLocs[:]})))
	if err != nil {
		t.Fatal(err)
	}
	if u2.Te != 12 || u2.Records != len(before)+1 {
		t.Errorf("post-ingest update covers %d records up to t=%d, want %d up to 12", u2.Records, u2.Te, len(before)+1)
	}
	if resultsEqual(u1.Results, u2.Results) {
		t.Error("the new record did not change the ranking's flows")
	}
	assertSameResults(t, "post-ingest evaluation", want, u2.Results)
}

// TestCacheEviction: the cache stays bounded at 2× its per-generation cap.
func TestCacheEviction(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(3))
	eng := NewEngine(fig.Space, Options{})
	// 200 distinct windows → 200 distinct cache keys.
	tb := randTable(rng, fig, 4, 1000)
	for te := iupt.Time(5); te <= 1000; te += 5 {
		eng.Flow(tb, fig.SLocs[0], te-5, te)
	}
	cs := eng.CacheStats()
	if cs.WindowMisses != 200 {
		t.Fatalf("%d windows were materialized, want 200", cs.WindowMisses)
	}
	if cs.WindowEntries > 2*DefaultWindowCacheCapacity {
		t.Errorf("cache grew to %d windows, cap is %d per generation", cs.WindowEntries, DefaultWindowCacheCapacity)
	}
}

// TestConcurrentEngineUse hammers one shared engine (and its cache) from
// many goroutines while a monitor ingests records — the scenario the race
// detector must bless.
func TestConcurrentEngineUse(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(41))
	tb := randTable(rng, fig, 16, 40)
	eng := NewEngine(fig.Space, Options{Workers: 4})
	live := &liveTable{eng: eng, tb: tb}
	mon := live.monitor(fig.SLocs[:], 2, 50)
	tb0 := tb.Len()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			algos := []Algorithm{AlgoNaive, AlgoNestedLoop, AlgoBestFirst}
			for i := 0; i < 8; i++ {
				if _, _, err := eng.TopK(tb, fig.SLocs[:], 3, 0, iupt.Time(10+i*4), algos[(g+i)%3]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20; i++ {
				rec := iupt.Record{
					OID:     iupt.ObjectID(100 + g),
					T:       iupt.Time(i),
					Samples: randSampleSet(local, fig.PLocs[:], 3),
				}
				live.ingest(rec)
				if i%5 == 4 {
					if u := current(mon); u.Records < tb0+i+1 {
						errs <- fmt.Errorf("update covers %d records after %d were there", u.Records, tb0+i+1)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWorkersStatRecorded: the Workers stat reports the pool actually used.
// Naive fans out over each location's objects, so even a two-location query
// fills the pool, and its answer matches the sequential one bit for bit.
func TestWorkersStatRecorded(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(8))
	tb := randTable(rng, fig, 20, 30)
	seq := NewEngine(fig.Space, Options{Workers: 1})
	par := NewEngine(fig.Space, Options{Workers: 4})
	for _, tc := range []struct {
		algo Algorithm
		q    []indoor.SLocID
	}{{AlgoNestedLoop, fig.SLocs[:]}, {AlgoNaive, fig.SLocs[:2]}} {
		want, st, err := seq.TopK(tb, tc.q, 2, 0, 30, tc.algo)
		if err != nil {
			t.Fatal(err)
		}
		if st.Workers != 1 {
			t.Errorf("%v: sequential Workers stat = %d, want 1", tc.algo, st.Workers)
		}
		got, st, err := par.TopK(tb, tc.q, 2, 0, 30, tc.algo)
		if err != nil {
			t.Fatal(err)
		}
		if st.Workers != 4 {
			t.Errorf("%v: parallel Workers stat = %d, want 4", tc.algo, st.Workers)
		}
		assertSameResults(t, tc.algo.String(), want, got)
	}
}
