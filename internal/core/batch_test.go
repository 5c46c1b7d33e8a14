package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"tkplq/internal/indoor"
)

// Tests of the shared-work batch evaluation: DoBatch must group queries by
// window and perform the per-object reduction + summarization once per
// group. That its answers are bit-identical to sequential Do calls at every
// worker count is FuzzDoors's.

// TestDoBatchSharesReduction: a batch of M same-window queries performs the
// per-object pipeline exactly once — observable as one shared pass in the
// responses' Stats and exactly that pass's misses (and zero hits) in the
// engine's lifetime cache counters.
func TestDoBatchSharesReduction(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(59))
	tb := randTable(rng, fig, 20, 50)
	const m = 4
	qs := make([]Query, m)
	for i := range qs {
		qs[i] = Query{Kind: KindTopK, Algorithm: AlgoNestedLoop, K: 2, Ts: 0, Te: 50, SLocs: fig.SLocs[i : i+3]}
	}

	eng := NewEngine(fig.Space, Options{})
	resps, err := eng.DoBatch(context.Background(), tb, qs)
	if err != nil {
		t.Fatal(err)
	}
	cs := eng.CacheStats()
	if cs.Hits != 0 {
		t.Errorf("cache hits = %d after one batch, want 0 (nothing should evaluate twice)", cs.Hits)
	}
	if cs.Misses == 0 || cs.Misses != resps[0].Stats.CacheMisses {
		t.Errorf("lifetime misses = %d, shared-pass misses = %d — want one identical non-zero pass",
			cs.Misses, resps[0].Stats.CacheMisses)
	}
	for i, resp := range resps {
		if resp.Stats.SharedBatch != m {
			t.Errorf("query %d: SharedBatch = %d, want %d", i, resp.Stats.SharedBatch, m)
		}
		if resp.Stats.ObjectsTotal != 20 {
			t.Errorf("query %d: ObjectsTotal = %d, want 20", i, resp.Stats.ObjectsTotal)
		}
	}
	// The shared pass must not have gone through the coalescer.
	if cs.Flights != 0 || cs.Coalesced != 0 {
		t.Errorf("coalescer counters %d/%d after a pure batch, want 0/0", cs.Flights, cs.Coalesced)
	}

	// Sequential contrast on a fresh engine: the first query misses, the
	// rest hit — so the batch saved m-1 passes over the cached objects and a
	// cacheless engine would have paid them in full.
	seq := NewEngine(fig.Space, Options{})
	for _, q := range qs {
		if _, err := seq.Do(context.Background(), tb, q); err != nil {
			t.Fatal(err)
		}
	}
	if scs := seq.CacheStats(); scs.Hits == 0 {
		t.Errorf("sequential contrast recorded no cache hits; expected repeated windows to hit")
	}
}

// TestDoBatchGroupsByOverrides: per-query overrides that change the
// evaluation configuration split the shared group; same-window queries with
// the same overrides still share.
func TestDoBatchGroupsByOverrides(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(61))
	tb := randTable(rng, fig, 16, 40)
	qs := []Query{
		{Kind: KindTopK, Algorithm: AlgoNestedLoop, K: 2, Te: 40, SLocs: fig.SLocs[:]},
		{Kind: KindTopK, Algorithm: AlgoNestedLoop, K: 3, Te: 40, SLocs: fig.SLocs[:]},
		{Kind: KindTopK, Algorithm: AlgoNestedLoop, K: 2, Te: 40, SLocs: fig.SLocs[:], DisableCache: true},
	}
	eng := NewEngine(fig.Space, Options{Workers: 1})
	resps, err := eng.DoBatch(context.Background(), tb, qs)
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Stats.SharedBatch != 2 || resps[1].Stats.SharedBatch != 2 {
		t.Errorf("same-config queries SharedBatch = %d/%d, want 2/2",
			resps[0].Stats.SharedBatch, resps[1].Stats.SharedBatch)
	}
	if resps[2].Stats.SharedBatch != 0 {
		t.Errorf("cache-bypassing query SharedBatch = %d, want 0 (own group)", resps[2].Stats.SharedBatch)
	}
	if resps[2].Stats.CacheHits != 0 || resps[2].Stats.CacheMisses != 0 {
		t.Errorf("cache-bypassing query recorded cache traffic: %d hits / %d misses",
			resps[2].Stats.CacheHits, resps[2].Stats.CacheMisses)
	}
}

// TestDoBatchValidation: a bad query anywhere fails the whole batch up
// front, naming its index; nothing evaluates.
func TestDoBatchValidation(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(67))
	tb := randTable(rng, fig, 6, 30)
	eng := NewEngine(fig.Space, Options{})
	_, err := eng.DoBatch(context.Background(), tb, []Query{
		{Kind: KindTopK, Algorithm: AlgoBestFirst, K: 2, Te: 30, SLocs: fig.SLocs[:]},
		{Kind: KindFlow, Te: 30, SLocs: fig.SLocs[:]}, // flow needs exactly one
	})
	if err == nil || !strings.Contains(err.Error(), "batch query 1") {
		t.Fatalf("err = %v, want validation failure naming batch query 1", err)
	}
	if cs := eng.CacheStats(); cs.Misses != 0 {
		t.Errorf("cache misses = %d after failed validation, want 0 (nothing may evaluate)", cs.Misses)
	}
	if out, err := eng.DoBatch(context.Background(), tb, nil); err != nil || len(out) != 0 {
		t.Errorf("empty batch = (%v, %v), want no responses and no error", out, err)
	}
}

// TestDoPerQueryOverrides: Query.Workers, DisableCache and DisableCoalescing
// change the evaluation configuration for one call only.
func TestDoPerQueryOverrides(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(71))
	tb := randTable(rng, fig, 24, 50)
	eng := NewEngine(fig.Space, Options{Workers: 1})
	base := Query{Kind: KindTopK, Algorithm: AlgoNestedLoop, K: 3, Te: 50, SLocs: fig.SLocs[:]}

	want, err := eng.Do(context.Background(), tb, base)
	if err != nil {
		t.Fatal(err)
	}
	flightsAfterBase := eng.CacheStats().Flights

	over := base
	over.Workers = 4
	over.DisableCache = true
	over.DisableCoalescing = true
	got, err := eng.Do(context.Background(), tb, over)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(got.Results, want.Results) {
		t.Errorf("overridden query ranking %v differs from base %v", got.Results, want.Results)
	}
	if got.Stats.Workers != 4 {
		t.Errorf("Stats.Workers = %d with Workers:4 override, want 4", got.Stats.Workers)
	}
	if got.Stats.CacheHits != 0 || got.Stats.CacheMisses != 0 {
		t.Errorf("cache traffic %d/%d with DisableCache override, want 0/0",
			got.Stats.CacheHits, got.Stats.CacheMisses)
	}
	if flights := eng.CacheStats().Flights; flights != flightsAfterBase {
		t.Errorf("flights advanced %d→%d despite DisableCoalescing", flightsAfterBase, flights)
	}
	// The engine's own configuration is untouched.
	if eng.Options().Workers != 1 {
		t.Errorf("per-query override mutated the engine options: %+v", eng.Options())
	}
}
