package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/parts"
)

// Tests of the answer a window's rank slot keeps (bestfirst.go, bfAnswer): a
// replayed question returns what a search over the same window returns —
// results bit for bit, Stats and CacheStats equal — and only the question the
// slot was built for is replayed.

// forgetAnswers clears the answer of every rank slot the engine's cache
// holds, so the next ask of any question over a kept window searches.
func forgetAnswers(e *Engine) {
	c := e.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, gen := range []map[windowKey]*windowEntry{c.cur, c.prev} {
		for _, en := range gen {
			if ri := en.rank.Load(); ri != nil {
				ri.keep(nil)
			}
		}
	}
}

// slotAnswer returns the answer in the slot of the window [ts, te] of tb, nil
// when the cache holds no such window or its slot no answer.
func slotAnswer(e *Engine, tb *iupt.Table, ts, te iupt.Time) *bfAnswer {
	en := e.cache.get(windowKey{table: tb, ts: ts, te: te})
	if en == nil {
		return nil
	}
	if ri := en.rank.Load(); ri != nil {
		return ri.answer.Load()
	}
	return nil
}

// TestBestFirstReplayDifferential: an engine that replays answers every ask
// exactly as one whose slot answer is cleared before each ask, so it searches
// over the same memoized window every time — results bit for bit, Stats and
// CacheStats equal — while the asks repeat a question, change k, permute the
// set, alternate two sets, override the pool, move the window's identity three
// ways, bypass the cache and cancel. Each step also states whether the
// replaying engine searched or replayed.
func TestBestFirstReplayDifferential(t *testing.T) {
	space, recs := rankIndexData(t)
	all := allSLocs(space)
	const ts, te = 100, 500
	ctx := context.Background()

	store, tb, err := parts.Open(parts.Options{Dir: t.TempDir(), Compact: parts.CompactionPolicy{MinInputs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ingest := func(batch []iupt.Record) {
		if err := store.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		tb.Append(batch...)
	}
	seal := func() {
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

	replaying := NewEngine(space, Options{Workers: 1})
	searching := NewEngine(space, Options{Workers: 1})
	ask := func(label string, q Query, wantReplay bool) *Response {
		t.Helper()
		q.Kind, q.Algorithm, q.Ts, q.Te = KindTopK, AlgoBestFirst, ts, te
		if !q.DisableCache {
			forgetAnswers(searching)
		}
		want, err := searching.Do(ctx, tb, q)
		if err != nil {
			t.Fatalf("%s (searching): %v", label, err)
		}
		before := slotAnswer(replaying, tb, ts, te)
		got, err := replaying.Do(ctx, tb, q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !resultsIdentical(got.Results, want.Results) {
			t.Fatalf("%s: results %v, a search finds %v", label, got.Results, want.Results)
		}
		if got.Stats != want.Stats {
			t.Errorf("%s: Stats differ from a search's:\n replay %+v\n search %+v", label, got.Stats, want.Stats)
		}
		if g, w := replaying.CacheStats(), searching.CacheStats(); g != w {
			t.Errorf("%s: CacheStats differ from a search's:\n replay %+v\n search %+v", label, g, w)
		}
		after := slotAnswer(replaying, tb, ts, te)
		switch replayed := before != nil && after == before; {
		case q.DisableCache:
			// A private window: the kept one's slot is not even read.
			if after != before || got.Stats.CacheHits+got.Stats.CacheMisses != 0 {
				t.Errorf("%s: a bypass touched the kept window (Stats %+v)", label, got.Stats)
			}
		case replayed != wantReplay:
			t.Errorf("%s: replayed %v, want %v", label, replayed, wantReplay)
		}
		return got
	}

	first := ask("first ask", Query{K: 10, SLocs: all}, false)
	if first.Stats.CacheMisses == 0 || first.Stats.HeapPops == 0 {
		t.Fatalf("degenerate first search: %+v", first.Stats)
	}
	again := ask("same question again", Query{K: 10, SLocs: all}, true)
	if again.Stats.CacheMisses != 0 || again.Stats.CacheHits != first.Stats.CacheHits+first.Stats.CacheMisses {
		t.Errorf("replay Stats %+v do not count the first search's lookups as hits: %+v", again.Stats, first.Stats)
	}
	// The caller owns what it is handed: overwriting it changes no replay.
	again.Results[0].Flow = -1
	ask("after the caller overwrote a replay", Query{K: 10, SLocs: all}, true)

	ask("k 10 → 5", Query{K: 5, SLocs: all}, false)
	ask("k 5 → 10", Query{K: 10, SLocs: all}, false)
	ask("k 10 again", Query{K: 10, SLocs: all}, true)

	permuted := slices.Clone(all)
	rand.New(rand.NewSource(9)).Shuffle(len(permuted), func(i, j int) { permuted[i], permuted[j] = permuted[j], permuted[i] })
	ask("permuted set", Query{K: 10, SLocs: permuted}, false)
	ask("permuted set again", Query{K: 10, SLocs: permuted}, true)
	ask("caller order after permuted", Query{K: 10, SLocs: all}, false)

	wing := all[:4]
	for range 2 { // each set replaces the other's index, and its answer with it
		ask("subset", Query{K: 3, SLocs: wing}, false)
		ask("full set after subset", Query{K: 10, SLocs: all}, false)
	}

	ask("workers override", Query{K: 10, SLocs: all, Workers: 4}, true)

	ask("cache bypass", Query{K: 10, SLocs: all, DisableCache: true}, false)
	ask("cache bypass again", Query{K: 10, SLocs: all, DisableCache: true}, false)
	ask("cached after the bypass", Query{K: 10, SLocs: all}, true)

	// A canceled ask gets ctx.Err() whether its question is replayed or
	// searched, and the slot's answer stays. (The driver refuses a canceled
	// context before either, so both are asked below it.)
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	forgetAnswers(searching)
	if _, _, err := searching.topkBestFirst(canceled, tb, all, 10, ts, te); !errors.Is(err, context.Canceled) {
		t.Errorf("a canceled search returned %v, want context.Canceled", err)
	}
	if slotAnswer(searching, tb, ts, te) != nil {
		t.Error("a canceled search stored an answer")
	}
	held := slotAnswer(replaying, tb, ts, te)
	if _, _, err := replaying.topkBestFirst(canceled, tb, all, 10, ts, te); !errors.Is(err, context.Canceled) {
		t.Errorf("a canceled replay returned %v, want context.Canceled", err)
	}
	if held == nil || slotAnswer(replaying, tb, ts, te) != held {
		t.Error("a canceled replay changed the slot's answer")
	}
	if g, w := replaying.CacheStats(), searching.CacheStats(); g.Hits != w.Hits || g.WindowHits != w.WindowHits {
		t.Errorf("canceled asks: lookups differ:\n replay %+v\n search %+v", g, w)
	}

	// The identity moves: a record into the window, a seal over it, a
	// compaction under it. Each stores a new entry with an empty slot.
	extra := recs[len(recs)/2]
	extra.OID, extra.T = 9000, 300
	ingest([]iupt.Record{extra})
	moved := ask("after an ingest into the window", Query{K: 10, SLocs: all}, false)
	if moved.Stats.ObjectsTotal != first.Stats.ObjectsTotal+1 {
		t.Errorf("%d objects after the ingest, %d before", moved.Stats.ObjectsTotal, first.Stats.ObjectsTotal)
	}
	ask("again after the ingest", Query{K: 10, SLocs: all}, true)
	seal()
	ask("after a seal over the window", Query{K: 10, SLocs: all}, false)
	ask("again after the seal", Query{K: 10, SLocs: all}, true)
	n := len(tb.Sealed())
	if _, err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(tb.Sealed()) >= n {
		t.Fatalf("the compaction left %d parts of %d", len(tb.Sealed()), n)
	}
	ask("after a compaction under the window", Query{K: 10, SLocs: all}, false)
	ask("again after the compaction", Query{K: 10, SLocs: all}, true)
}

// TestBestFirstReplayConcurrent: goroutines asking different k and query sets
// over one cached window replace each other's index and answer in its slot;
// every answer equals the sequential one. Run under -race.
func TestBestFirstReplayConcurrent(t *testing.T) {
	space, recs := rankIndexData(t)
	tb := iupt.NewTable()
	tb.Append(recs...)
	all := allSLocs(space)
	type question struct {
		slocs []indoor.SLocID
		k     int
	}
	var questions []question
	for _, set := range [][]indoor.SLocID{all, all[:len(all)/2], all[len(all)/3:]} {
		for _, k := range []int{3, 10} {
			questions = append(questions, question{set, k})
		}
	}
	ctx := context.Background()
	sequential := NewEngine(space, Options{Workers: 1})
	want := make([]*Response, len(questions))
	for i, qu := range questions {
		var err error
		if want[i], err = sequential.Do(ctx, tb, uncached(Query{Algorithm: AlgoBestFirst, K: qu.k, Te: 600, SLocs: qu.slocs})); err != nil {
			t.Fatal(err)
		}
	}
	shared := NewEngine(space, Options{Workers: 2})
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 60 {
				// Each goroutine stays on one question for a few asks, so
				// replays and searches interleave.
				n := (g + i/3) % len(questions)
				qu := questions[n]
				got, err := shared.Do(ctx, tb, Query{Algorithm: AlgoBestFirst, K: qu.k, Te: 600, SLocs: qu.slocs, DisableCoalescing: true})
				if err != nil {
					t.Error(err)
					return
				}
				w := want[n]
				if !resultsIdentical(got.Results, w.Results) || got.Stats.HeapPops != w.Stats.HeapPops || got.Stats.ObjectsComputed != w.Stats.ObjectsComputed {
					t.Errorf("goroutine %d ask %d (question %d): %v after %d pops, want %v after %d",
						g, i, n, got.Results, got.Stats.HeapPops, w.Results, w.Stats.HeapPops)
					return
				}
			}
		}()
	}
	wg.Wait()
}
