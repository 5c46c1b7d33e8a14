package core

import (
	"context"
	"math/rand"
	"testing"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// TestCacheDifferential pins what a hit is, on a plain in-memory table: the
// head has no partition to vouch for it, only the count of its records
// inside the window. Every answer is also held to a fresh engine's. (That
// cached answers equal fresh ones through seeded ingest, at every worker
// count, is FuzzDoors's.)
func TestCacheDifferential(t *testing.T) {
	fig := indoor.Figure1Space()
	ctx := context.Background()
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
