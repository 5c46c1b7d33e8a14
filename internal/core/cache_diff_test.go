package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// diffQueries is the battery the cached ≡ uncached differentials ask of one
// window: all three algorithms, density, a flow and a presence.
func diffQueries(fig *indoor.Figure1, ts, te iupt.Time) []Query {
	all := fig.SLocs[:]
	return []Query{
		{Kind: KindTopK, Algorithm: AlgoBestFirst, K: 3, Ts: ts, Te: te, SLocs: all},
		{Kind: KindTopK, Algorithm: AlgoNestedLoop, K: len(all), Ts: ts, Te: te, SLocs: all},
		{Kind: KindTopK, Algorithm: AlgoNaive, K: 2, Ts: ts, Te: te, SLocs: all[:4]},
		{Kind: KindDensity, K: 3, Ts: ts, Te: te, SLocs: all[1:]},
		{Kind: KindFlow, Ts: ts, Te: te, SLocs: all[2:3]},
		{Kind: KindPresence, OID: 3, Ts: ts, Te: te, SLocs: all[:1]},
	}
}

// TestCacheDifferential drives an engine with the cache and one without over
// the same plain in-memory table through seeded random ingest — into the
// watched windows (out of order, the head has moved on), in order past them,
// and elsewhere — and after every step asks both every kind of question, by
// Do, DoBatch and DoPartial, at workers 1 and 4. Answers must be bit-identical
// at every step: whatever the cache serves is what a fresh evaluation
// computes. The second half pins what a hit is.
func TestCacheDifferential(t *testing.T) {
	fig := indoor.Figure1Space()
	ctx := context.Background()
	windows := [][2]iupt.Time{{0, 25}, {15, 40}, {30, 60}, {0, 60}, {45, 45}, {70, 90}}
	for _, workers := range []int{1, 4} {
		rng := rand.New(rand.NewSource(int64(70 + workers)))
		tb := randTable(rng, fig, 10, 60)
		cached := NewEngine(fig.Space, Options{Workers: workers})
		plain := NewEngine(fig.Space, Options{Workers: workers}) // asked with the cache bypassed
		now := iupt.Time(61)
		for step := 0; step < 60; step++ {
			rec := iupt.Record{OID: iupt.ObjectID(1 + rng.Intn(12)), Samples: randSampleSet(rng, fig.PLocs[:], 3)}
			switch rng.Intn(4) {
			case 0: // into old windows, behind the head
				rec.T = iupt.Time(rng.Intn(61))
				tb.Append(rec)
			case 1: // in order
				rec.T = now
				now += iupt.Time(rng.Intn(3))
				tb.Append(rec)
			case 2: // where no window looks
				rec.T = 500 + iupt.Time(rng.Intn(100))
				tb.Append(rec)
			default: // no ingest: the next questions repeat over unchanged data
			}
			win := windows[rng.Intn(len(windows))]
			qs := diffQueries(fig, win[0], win[1])
			at := fmt.Sprintf("workers=%d step %d window %v", workers, step, win)
			for i, q := range qs {
				got, err := cached.Do(ctx, tb, q)
				if err != nil {
					t.Fatalf("%s query %d: %v", at, i, err)
				}
				want, err := plain.Do(ctx, tb, uncached(q))
				if err != nil {
					t.Fatalf("%s query %d (uncached): %v", at, i, err)
				}
				assertSameResponse(t, fmt.Sprintf("%s Do %d", at, i), want, got)
				if got.Stats.ObjectsTotal != want.Stats.ObjectsTotal || got.Stats.ObjectsComputed != want.Stats.ObjectsComputed {
					t.Errorf("%s Do %d: %d of %d objects computed, uncached %d of %d", at, i,
						got.Stats.ObjectsComputed, got.Stats.ObjectsTotal, want.Stats.ObjectsComputed, want.Stats.ObjectsTotal)
				}

				gotP, err := cached.DoPartial(ctx, tb, q)
				if err != nil {
					t.Fatal(err)
				}
				wantP, err := plain.DoPartial(ctx, tb, uncached(q))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotP.OIDs, wantP.OIDs) || !reflect.DeepEqual(gotP.Rows, wantP.Rows) {
					t.Fatalf("%s DoPartial %d: cached rows differ from uncached", at, i)
				}
			}
			// One batch over two windows: a shared group and a lone member.
			other := windows[(step+1)%len(windows)]
			batch := append(qs[:5:5], diffQueries(fig, other[0], other[1])[1])
			gotB, err := cached.DoBatch(ctx, tb, batch)
			if err != nil {
				t.Fatal(err)
			}
			wantB, err := plain.DoBatch(ctx, tb, uncachedAll(batch))
			if err != nil {
				t.Fatal(err)
			}
			for i := range batch {
				assertSameResponse(t, fmt.Sprintf("%s DoBatch %d", at, i), wantB[i], gotB[i])
			}
		}
	}

	// What a hit is, on a plain in-memory table: the head has no partition to
	// vouch for it, only the count of its records inside the window.
	rng := rand.New(rand.NewSource(7))
	tb := randTable(rng, fig, 10, 60)
	eng := NewEngine(fig.Space, Options{Workers: 1})
	q := Query{Kind: KindTopK, Algorithm: AlgoNestedLoop, K: len(fig.SLocs), Ts: 10, Te: 50, SLocs: fig.SLocs[:]}
	ask := func(label string) (*Response, CacheStats) {
		t.Helper()
		resp, err := eng.Do(ctx, tb, q)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewEngine(fig.Space, Options{Workers: 1}).Do(ctx, tb, q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResponse(t, label, fresh, resp)
		return resp, eng.CacheStats()
	}
	allHits := func(label string, resp *Response, before, after CacheStats) {
		t.Helper()
		if st := resp.Stats; st.ObjectsComputed == 0 || st.CacheHits != int64(st.ObjectsComputed) || st.CacheMisses != 0 {
			t.Errorf("%s: %d hits / %d misses over %d computed objects, want every object a hit", label, st.CacheHits, st.CacheMisses, st.ObjectsComputed)
		}
		if after.WindowHits != before.WindowHits+1 || after.WindowMisses != before.WindowMisses {
			t.Errorf("%s: window hits %d → %d, misses %d → %d, want the window itself served from the cache", label, before.WindowHits, after.WindowHits, before.WindowMisses, after.WindowMisses)
		}
	}
	allMisses := func(label string, resp *Response, before, after CacheStats) {
		t.Helper()
		if st := resp.Stats; st.CacheHits != 0 || st.CacheMisses != int64(st.ObjectsComputed) {
			t.Errorf("%s: %d hits / %d misses over %d computed objects, want every object a miss", label, st.CacheHits, st.CacheMisses, st.ObjectsComputed)
		}
		if after.WindowMisses != before.WindowMisses+1 || after.WindowHits != before.WindowHits {
			t.Errorf("%s: window hits %d → %d, misses %d → %d, want one rematerialization", label, before.WindowHits, after.WindowHits, before.WindowMisses, after.WindowMisses)
		}
	}
	set := iupt.SampleSet{{Loc: fig.PLocs[0], Prob: 1}}

	first, cs1 := ask("first sighting")
	allMisses("first sighting", first, CacheStats{}, cs1)
	again, cs2 := ask("repeat of an untouched window")
	allHits("repeat of an untouched window", again, cs1, cs2)

	tb.Append(iupt.Record{OID: 2, T: 55, Samples: set}) // behind the head, outside [10, 50]
	tb.Append(iupt.Record{OID: 2, T: 900, Samples: set})
	elsewhere, cs3 := ask("after ingest elsewhere")
	allHits("after ingest elsewhere", elsewhere, cs2, cs3)

	tb.Append(iupt.Record{OID: 99, T: 30, Samples: set})
	into, cs4 := ask("after ingest into the window")
	allMisses("after ingest into the window", into, cs3, cs4)
	if resultsEqual(into.Results, elsewhere.Results) {
		t.Error("the ingested record did not change the answer")
	}
	if cs4.Hits != again.Stats.CacheHits+elsewhere.Stats.CacheHits || cs4.Misses != first.Stats.CacheMisses+into.Stats.CacheMisses {
		t.Errorf("lifetime counters %d hits / %d misses are not the sum of the per-query ones", cs4.Hits, cs4.Misses)
	}
}
