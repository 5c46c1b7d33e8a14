package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// TestCacheDifferentialRacingIngest: appends landing between a miss's
// identity lookup and its materialization must leave no cached entry whose
// identity disagrees with its sequences. Queries race an appender over the
// same windows; once both stop, every entry's identity must describe its own
// sequences, every entry whose identity the table still vouches for must hold
// exactly the table's sequences, and the cached engine must answer as an
// uncached one does.
func TestCacheDifferentialRacingIngest(t *testing.T) {
	fig := indoor.Figure1Space()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	tb := randTable(rng, fig, 8, 40)
	eng := NewEngine(fig.Space, Options{Workers: 2})
	windows := [][2]iupt.Time{{0, 20}, {10, 40}, {0, 40}}

	// Queries run for as long as the (bounded, paced) appender does, so
	// materializations keep having appends land around them.
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		local := rand.New(rand.NewSource(6))
		for i := 0; i < 400; i++ {
			tb.Append(iupt.Record{OID: iupt.ObjectID(1 + local.Intn(8)), T: iupt.Time(local.Intn(41)), Samples: randSampleSet(local, fig.PLocs[:], 3)})
			time.Sleep(20 * time.Microsecond)
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				win := windows[(g+i)%len(windows)]
				if _, _, err := eng.TopK(tb, fig.SLocs[:], 3, win[0], win[1], AlgoNestedLoop); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	eng.cache.mu.Lock()
	entries := make(map[windowKey]*windowEntry)
	for _, gen := range []map[windowKey]*windowEntry{eng.cache.cur, eng.cache.prev} {
		for key, en := range gen {
			entries[key] = en
		}
	}
	eng.cache.mu.Unlock()
	if len(entries) == 0 {
		t.Fatal("no window was cached")
	}
	for key, en := range entries {
		// The table has no sealed part, so the identity's head count is the
		// window's whole record count.
		n := 0
		for _, seq := range en.win.Seqs {
			n += len(seq)
		}
		if len(en.id.Parts) != 0 || en.id.Head != n {
			t.Errorf("window [%d, %d]: %d cached records stored under identity %v", key.ts, key.te, n, en.id)
		}
		fresh, id, err := tb.Window(ctx, key.ts, key.te, nil)
		if err != nil {
			t.Fatal(err)
		}
		if en.id.Equal(id) && !reflect.DeepEqual(en.win, *fresh) {
			t.Errorf("window [%d, %d]: cached sequences differ from the table's under the identity %v both claim", key.ts, key.te, id)
		}
	}
	plain := NewEngine(fig.Space, Options{Workers: 2, DisableCache: true})
	for _, win := range windows {
		got, _, err := eng.TopK(tb, fig.SLocs[:], len(fig.SLocs), win[0], win[1], AlgoNestedLoop)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := plain.TopK(tb, fig.SLocs[:], len(fig.SLocs), win[0], win[1], AlgoNestedLoop)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "after the race", want, got)
	}
}

// TestWindowCacheStoreReplaces: storing a window whose key already has an
// entry — superseded in prev, or current in a full cur — leaves exactly one
// entry for the key, the new one, and CacheStats counts the window once. Only
// a new key may rotate a generation.
func TestWindowCacheStoreReplaces(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(9))
	tb := randTable(rng, fig, 6, 40)
	eng := NewEngine(fig.Space, Options{Workers: 1})
	eng.cache.cap = 2
	w1, w2, w3 := [2]iupt.Time{0, 9}, [2]iupt.Time{20, 29}, [2]iupt.Time{31, 40}
	ask := func(w [2]iupt.Time) {
		t.Helper()
		if _, _, err := eng.TopK(tb, fig.SLocs[:], 3, w[0], w[1], AlgoNestedLoop); err != nil {
			t.Fatal(err)
		}
	}
	// into moves w1's identity (T = 5 lies in no other window).
	into := func() {
		tb.Append(iupt.Record{OID: 1, T: 5, Samples: randSampleSet(rng, fig.PLocs[:], 3)})
	}
	// check asserts every key is stored once — the entry for w1 under w1's
	// current identity — and that CacheStats adds up exactly those entries.
	check := func(at string, wantPrev int) {
		t.Helper()
		c := eng.cache
		c.mu.Lock()
		var bytes int64
		for key, en := range c.cur {
			if _, dup := c.prev[key]; dup {
				t.Errorf("%s: window [%d, %d] is stored in both generations", at, key.ts, key.te)
			}
			bytes += en.bytes
		}
		for _, en := range c.prev {
			bytes += en.bytes
		}
		entries, prev := len(c.cur)+len(c.prev), len(c.prev)
		en := c.cur[windowKey{table: tb, ts: w1[0], te: w1[1]}]
		c.mu.Unlock()
		if prev != wantPrev {
			t.Errorf("%s: prev holds %d windows, want %d", at, prev, wantPrev)
		}
		if en == nil {
			t.Fatalf("%s: w1 is not in the current generation", at)
		}
		if n := len(tb.RecordsInRange(w1[0], w1[1])); en.id.Head != n {
			t.Errorf("%s: w1's entry holds identity %v, the window has %d records", at, en.id, n)
		}
		st := eng.CacheStats()
		if st.WindowEntries != entries || st.WindowEntries != 3 || st.WindowBytes != bytes {
			t.Errorf("%s: CacheStats reads %d windows / %d bytes, the generations hold %d / %d over 3 keys",
				at, st.WindowEntries, st.WindowBytes, entries, bytes)
		}
	}

	ask(w1)
	ask(w2)
	ask(w3) // cur = {w3}, prev = {w1, w2}
	into()
	ask(w1) // a miss whose superseded entry sits in prev
	check("superseded entry in prev", 1)

	ask(w2) // promoted out of prev: cur = {w3, w1} was full, so this rotates
	ask(w3) // promoted back: cur = {w2, w3}, prev = {w1}
	ask(w1) // cur = {w1}, prev = {w2, w3}
	ask(w2) // cur = {w1, w2}, prev = {w3}: cur is full
	into()
	ask(w1) // re-stores a key of the full cur: no rotation
	check("re-store into a full cur", 1)
}

// TestObjectMemoNeverDowngrades: goroutines race reduction-only and summarized
// puts on the same slots of a cached window's memo while a reader watches
// them. No reader ever sees a summarized slot lose its summary, every slot
// that was put ends summarized and keeps the first summary stored, and
// CacheStats.Entries counts exactly the filled slots. Run under -race.
func TestObjectMemoNeverDowngrades(t *testing.T) {
	fig := indoor.Figure1Space()
	eng := NewEngine(fig.Space, Options{})
	const objects = 64
	w := iupt.Window{OIDs: make([]iupt.ObjectID, objects), Seqs: make([]iupt.Sequence, objects)}
	for i := range w.OIDs {
		w.OIDs[i] = iupt.ObjectID(i)
	}
	memo := eng.cache.store(windowKey{te: 1}, iupt.WindowIdentity{}, w).memo
	red := &Reduction{}
	filled := func(i int) bool { return i%4 != 3 } // every fourth slot stays empty

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the reader
		defer wg.Done()
		var summarized [objects]bool
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range memo {
				m := memo.get(i)
				if summarized[i] && (m == nil || m.sum == nil) {
					t.Errorf("slot %d was downgraded from summarized", i)
					return
				}
				summarized[i] = m != nil && m.sum != nil
			}
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for round := 0; round < 50; round++ {
				for i := range memo {
					switch {
					case !filled(i):
					case g%2 == 0:
						memo.put(i, &memoized{red: red})
					default:
						memo.put(i, &memoized{red: red, sum: &ObjectSummary{Segments: g}})
					}
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	want := 0
	for i := range memo {
		m := memo.get(i)
		if !filled(i) {
			if m != nil {
				t.Fatalf("slot %d was never put but holds %+v", i, m)
			}
			continue
		}
		want++
		if m == nil || m.sum == nil {
			t.Fatalf("slot %d ended without its summary: %+v", i, m)
		}
		memo.put(i, &memoized{red: red})
		memo.put(i, &memoized{red: red, sum: &ObjectSummary{}})
		if memo.get(i) != m {
			t.Fatalf("slot %d: a later put replaced its summary", i)
		}
	}
	if st := eng.CacheStats(); st.Entries != want {
		t.Errorf("CacheStats.Entries = %d, want the %d filled slots", st.Entries, want)
	}
}
