package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tkplq/internal/cluster"
	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// Tests of the distributed fan-in primitives: splitting a table across
// shard partitions, evaluating per-shard Partials, merging them in canonical
// ascending-object order and finishing the ranking must be bit-identical to
// evaluating the union table in one engine — for every shard count, every
// algorithm and every query kind, including after mid-stream ingest.

// shardTopology builds an n-shard hash topology with placeholder addresses.
func shardTopology(t *testing.T, n int) *cluster.Topology {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", 9001+i)
	}
	topo, err := cluster.New(addrs)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// splitTable partitions tb into per-shard tables by topology ownership.
func splitTable(tb *iupt.Table, topo *cluster.Topology) []*iupt.Table {
	out := make([]*iupt.Table, topo.NumShards())
	for i := range out {
		out[i] = iupt.NewTable()
	}
	for _, rec := range tb.SortedRecords() {
		out[topo.ShardOf(rec.OID)].Append(rec)
	}
	return out
}

// distributedDo evaluates q the way the router does: one DoPartial per
// shard table (each on its own engine, as separate processes would run),
// merged and finished on a fresh engine.
func distributedDo(t *testing.T, space *indoor.Space, shards []*iupt.Table, q Query) *Response {
	t.Helper()
	parts := make([]*Partial, len(shards))
	for i, stb := range shards {
		eng := NewEngine(space, Options{})
		p, err := eng.DoPartial(context.Background(), stb, q)
		if err != nil {
			t.Fatalf("shard %d DoPartial: %v", i, err)
		}
		parts[i] = p
	}
	merged, err := MergePartials(parts)
	if err != nil {
		t.Fatal(err)
	}
	router := NewEngine(space, Options{})
	resp, err := router.FinishPartial(q, merged)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func assertSameResponse(t *testing.T, label string, want, got *Response) {
	t.Helper()
	assertSameResults(t, label, want.Results, got.Results)
	if want.Flow != got.Flow { // bitwise, like the results
		t.Fatalf("%s: flow %v, want %v (must be bit-identical)", label, got.Flow, want.Flow)
	}
}

// TestPartialMergeMatchesStandalone replays the same workload through a
// standalone engine and 1-, 2- and 4-shard partial evaluations: rankings and
// flows must be bit-identical for every algorithm and kind, and stay so
// after a mid-stream ingest lands in both worlds.
func TestPartialMergeMatchesStandalone(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(41))
	tb := randTable(rng, fig, 30, 80)
	qset := fig.SLocs[:]

	queries := []Query{
		{Kind: KindTopK, Algorithm: AlgoNaive, K: 3, Ts: 0, Te: 80, SLocs: qset},
		{Kind: KindTopK, Algorithm: AlgoNestedLoop, K: len(qset), Ts: 5, Te: 60, SLocs: qset},
		{Kind: KindTopK, Algorithm: AlgoBestFirst, K: 4, Ts: 0, Te: 80, SLocs: qset},
		{Kind: KindDensity, K: 4, Ts: 0, Te: 80, SLocs: qset},
		{Kind: KindFlow, Ts: 10, Te: 70, SLocs: qset[:1]},
		{Kind: KindPresence, Ts: 0, Te: 80, SLocs: qset[1:2], OID: 7},
	}

	round := func(stage string) {
		for _, shards := range []int{1, 2, 4} {
			topo := shardTopology(t, shards)
			parts := splitTable(tb, topo)
			for qi, q := range queries {
				label := fmt.Sprintf("%s/shards=%d/q%d(kind=%d)", stage, shards, qi, q.Kind)
				ref := NewEngine(fig.Space, Options{})
				want, err := ref.Do(context.Background(), tb, q)
				if err != nil {
					t.Fatalf("%s: standalone: %v", label, err)
				}
				got := distributedDo(t, fig.Space, parts, q)
				assertSameResponse(t, label, want, got)
			}
		}
	}

	round("initial")

	// Mid-stream ingest: new records for existing and brand-new objects land
	// in the table; the split is recomputed as the owning shards would see it.
	for oid := 1; oid <= 40; oid += 7 {
		tb.Append(iupt.Record{
			OID:     iupt.ObjectID(oid),
			T:       iupt.Time(81 + oid%5),
			Samples: randSampleSet(rng, fig.PLocs[:], 4),
		})
	}
	queries[0].Te, queries[2].Te, queries[3].Te = 90, 90, 90
	round("after-ingest")
}

// TestMergePartialsRejectsOverlap: the same object contributed by two
// partials is a topology bug that would double-count presence — hard error.
func TestMergePartialsRejectsOverlap(t *testing.T) {
	a := &Partial{OIDs: []iupt.ObjectID{1, 3}, Rows: [][]float64{{0.5}, {0.25}}}
	b := &Partial{OIDs: []iupt.ObjectID{2, 3}, Rows: [][]float64{{0.125}, {1}}}
	if _, err := MergePartials([]*Partial{a, b}); err == nil {
		t.Fatal("overlapping partials merged without error")
	}
	if _, err := MergePartials([]*Partial{a, nil}); err == nil {
		t.Fatal("nil partial merged without error")
	}
	if _, err := MergePartials([]*Partial{{OIDs: []iupt.ObjectID{1}, Rows: nil}}); err == nil {
		t.Fatal("misaligned partial merged without error")
	}
}

// TestMergePartialsOrdersAcrossShards: the k-way merge must interleave the
// shards' ascending streams into one strictly ascending stream.
func TestMergePartialsOrdersAcrossShards(t *testing.T) {
	a := &Partial{OIDs: []iupt.ObjectID{1, 4, 9}, Rows: [][]float64{{1}, {4}, {9}}}
	b := &Partial{OIDs: []iupt.ObjectID{2, 8}, Rows: [][]float64{{2}, {8}}}
	c := &Partial{OIDs: []iupt.ObjectID{3}, Rows: [][]float64{{3}}}
	m, err := MergePartials([]*Partial{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	want := []iupt.ObjectID{1, 2, 3, 4, 8, 9}
	if len(m.OIDs) != len(want) {
		t.Fatalf("merged %d objects, want %d", len(m.OIDs), len(want))
	}
	for i, oid := range m.OIDs {
		if oid != want[i] {
			t.Fatalf("merged OIDs[%d] = %d, want %d", i, oid, want[i])
		}
		if m.Rows[i][0] != float64(oid) {
			t.Fatalf("row %d travelled with the wrong object: %v", i, m.Rows[i])
		}
	}
}

// TestFinishPartialGroupMatchesDoBatch: the router's shared-window batch
// path — one fan-out over the union S-location set, every member finished
// from the union columns — must answer exactly like the in-process DoBatch.
func TestFinishPartialGroupMatchesDoBatch(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(43))
	tb := randTable(rng, fig, 20, 60)
	qset := fig.SLocs[:]

	qs := []Query{
		{Kind: KindTopK, Algorithm: AlgoBestFirst, K: 3, Ts: 0, Te: 60, SLocs: qset},
		{Kind: KindFlow, Ts: 0, Te: 60, SLocs: qset[2:3]},
		{Kind: KindDensity, K: 2, Ts: 0, Te: 60, SLocs: qset[:4]},
		{Kind: KindPresence, Ts: 0, Te: 60, SLocs: qset[1:2], OID: 3},
		{Kind: KindTopK, Algorithm: AlgoNaive, K: 2, Ts: 5, Te: 50, SLocs: qset[:3]}, // separate window → own group
	}

	ref := NewEngine(fig.Space, Options{})
	want, err := ref.DoBatch(context.Background(), tb, qs)
	if err != nil {
		t.Fatal(err)
	}

	topo := shardTopology(t, 2)
	parts := splitTable(tb, topo)
	router := NewEngine(fig.Space, Options{})
	out := make([]*Response, len(qs))
	for _, idxs := range router.BatchGroups(qs) {
		union := UnionSLocs(qs, idxs)
		m := qs[idxs[0]]
		fq := Query{Kind: KindTopK, Algorithm: AlgoBestFirst, K: len(union), Ts: m.Ts, Te: m.Te, SLocs: union}
		shardParts := make([]*Partial, len(parts))
		for i, stb := range parts {
			eng := NewEngine(fig.Space, Options{})
			if shardParts[i], err = eng.DoPartial(context.Background(), stb, fq); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := MergePartials(shardParts)
		if err != nil {
			t.Fatal(err)
		}
		if err := router.FinishPartialGroup(qs, idxs, union, merged, out); err != nil {
			t.Fatal(err)
		}
	}
	for i := range qs {
		label := fmt.Sprintf("batch member %d (kind=%d)", i, qs[i].Kind)
		if out[i] == nil {
			t.Fatalf("%s: no response", label)
		}
		assertSameResponse(t, label, want[i], out[i])
	}
	if g := out[0].Stats.SharedBatch; g != 4 {
		t.Fatalf("shared group size %d, want 4", g)
	}
}

// TestQueryCoalescerSharesFlights: identical concurrent queries at one epoch
// share a single evaluation; bumping the epoch (a routed ingest) forces a
// fresh flight.
func TestQueryCoalescerSharesFlights(t *testing.T) {
	fig := indoor.Figure1Space()
	qset := append([]indoor.SLocID(nil), fig.SLocs[:]...)
	q := Query{Kind: KindTopK, Algorithm: AlgoBestFirst, K: 2, Ts: 0, Te: 60, SLocs: qset}

	qc := NewQueryCoalescer()
	var evals sync.Map
	var evalCount int
	var mu sync.Mutex
	eval := func(context.Context) ([]Result, Stats, error) {
		mu.Lock()
		evalCount++
		mu.Unlock()
		return []Result{{SLoc: qset[0], Flow: 1.5}}, Stats{Workers: 1}, nil
	}

	const callers = 8
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-release
			res, _, err := qc.Do(context.Background(), q, 2, 1, eval)
			if err != nil {
				t.Error(err)
				return
			}
			evals.Store(i, res[0].Flow)
		}(i)
	}
	close(release)
	wg.Wait()
	evals.Range(func(_, v any) bool {
		if v.(float64) != 1.5 {
			t.Errorf("coalesced caller got flow %v", v)
		}
		return true
	})
	if evalCount > callers {
		t.Fatalf("eval ran %d times for %d callers", evalCount, callers)
	}

	// New epoch → the old flight (were it still open) cannot be joined.
	before := evalCount
	if _, _, err := qc.Do(context.Background(), q, 2, 2, eval); err != nil {
		t.Fatal(err)
	}
	if evalCount != before+1 {
		t.Fatalf("epoch bump did not force a fresh evaluation")
	}

	// Presence and opt-out queries evaluate solo.
	solo := Query{Kind: KindPresence, Ts: 0, Te: 60, SLocs: qset[:1], OID: 1}
	if _, _, err := qc.Do(context.Background(), solo, 0, 2, eval); err != nil {
		t.Fatal(err)
	}
	coalesced, led := qc.Counts()
	if led == 0 {
		t.Fatalf("coalescer led no flights (coalesced=%d)", coalesced)
	}
}

// TestDoPartialPrunedObjectsAbsent: objects whose pruned summaries would
// contribute exact zeros must not emit rows — the wire stays lean and the
// merged accumulation still matches, because adding 0.0 to a non-negative
// float is bit-preserving.
func TestDoPartialPrunedObjectsAbsent(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(47))
	tb := randTable(rng, fig, 12, 40)
	eng := NewEngine(fig.Space, Options{})
	// One S-location only: plenty of objects never intersect it.
	q := Query{Kind: KindFlow, Ts: 0, Te: 40, SLocs: fig.SLocs[:1]}
	p, err := eng.DoPartial(context.Background(), tb, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.OIDs) != len(p.Rows) {
		t.Fatalf("misaligned partial: %d oids, %d rows", len(p.OIDs), len(p.Rows))
	}
	for i := 1; i < len(p.OIDs); i++ {
		if p.OIDs[i] <= p.OIDs[i-1] {
			t.Fatalf("partial OIDs not strictly ascending at %d: %v", i, p.OIDs)
		}
	}
	if p.Stats.ObjectsTotal < len(p.OIDs) {
		t.Fatalf("ObjectsTotal %d < contributing objects %d", p.Stats.ObjectsTotal, len(p.OIDs))
	}
	want, err := eng.Do(context.Background(), tb, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.FinishPartial(q, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flow != want.Flow {
		t.Fatalf("partial flow %v, want standalone %v", got.Flow, want.Flow)
	}
}
