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
// So are a nil partial, rows that do not fill the columns, and partials of
// different column counts.
func TestMergePartialsRejectsOverlap(t *testing.T) {
	a := &Partial{OIDs: []iupt.ObjectID{1, 3}, Cols: 1, Rows: []float64{0.5, 0.25}}
	b := &Partial{OIDs: []iupt.ObjectID{2, 3}, Cols: 1, Rows: []float64{0.125, 1}}
	if _, err := MergePartials([]*Partial{a, b}); err == nil {
		t.Fatal("overlapping partials merged without error")
	}
	if _, err := MergePartials([]*Partial{a, nil}); err == nil {
		t.Fatal("nil partial merged without error")
	}
	if _, err := MergePartials([]*Partial{{OIDs: []iupt.ObjectID{1}, Cols: 1, Rows: nil}}); err == nil {
		t.Fatal("misaligned partial merged without error")
	}
	wide := &Partial{OIDs: []iupt.ObjectID{2}, Cols: 2, Rows: []float64{0.125, 1}}
	if _, err := MergePartials([]*Partial{a, wide}); err == nil {
		t.Fatal("partials of 1 and 2 columns merged without error")
	}
}

// TestMergePartialsOrdersAcrossShards: the k-way merge must interleave the
// shards' ascending streams into one strictly ascending stream.
func TestMergePartialsOrdersAcrossShards(t *testing.T) {
	a := &Partial{OIDs: []iupt.ObjectID{1, 4, 9}, Cols: 1, Rows: []float64{1, 4, 9}}
	b := &Partial{OIDs: []iupt.ObjectID{2, 8}, Cols: 1, Rows: []float64{2, 8}}
	c := &Partial{OIDs: []iupt.ObjectID{3}, Cols: 1, Rows: []float64{3}}
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
		if m.Rows[i] != float64(oid) {
			t.Fatalf("row %d travelled with the wrong object: %v", i, m.Rows[i])
		}
	}
}

// shardSource is a router in miniature: a RowSource whose every pass runs
// DoPartial on each shard table (its own engine each, as separate processes
// would), merges the partials and replays them. It counts the passes.
type shardSource struct {
	space   *indoor.Space
	opts    Options
	shards  []*iupt.Table
	version int

	mu     sync.Mutex
	passes int
}

func (s *shardSource) Version() int { return s.version }

func (s *shardSource) Rows(ctx context.Context, pass Query, emit func(iupt.ObjectID, []float64)) (Stats, error) {
	s.mu.Lock()
	s.passes++
	s.mu.Unlock()
	parts := make([]*Partial, len(s.shards))
	for i, stb := range s.shards {
		var err error
		if parts[i], err = NewEngine(s.space, s.opts).DoPartial(ctx, stb, pass); err != nil {
			return Stats{}, err
		}
	}
	merged, err := MergePartials(parts)
	if err != nil {
		return Stats{}, err
	}
	return Replay(merged).Rows(ctx, pass, emit)
}

// TestDriverSharesFlights: identical concurrent queries at one source version
// share a single evaluation; bumping the version (a routed ingest) forces a
// fresh flight.
func TestDriverSharesFlights(t *testing.T) {
	fig := indoor.Figure1Space()
	tb := randTable(rand.New(rand.NewSource(45)), fig, 12, 60)
	qset := append([]indoor.SLocID(nil), fig.SLocs[:]...)
	q := Query{Kind: KindTopK, Algorithm: AlgoBestFirst, K: 2, Ts: 0, Te: 60, SLocs: qset}
	want, err := NewEngine(fig.Space, Options{}).Do(context.Background(), tb, q)
	if err != nil {
		t.Fatal(err)
	}

	drv := NewDriver(fig.Space)
	src := &shardSource{space: fig.Space, shards: []*iupt.Table{tb}, version: 1}

	const callers = 8
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			out, err := drv.Answer(context.Background(), src, []Query{q})
			if err != nil {
				t.Error(err)
				return
			}
			assertSameResults(t, "coalesced caller", want.Results, out[0].Results)
		}()
	}
	close(release)
	wg.Wait()
	if src.passes > callers {
		t.Fatalf("source passed %d times for %d callers", src.passes, callers)
	}
	coalesced, led := drv.Counts()
	if int(coalesced)+src.passes != callers || int(led) != src.passes {
		t.Fatalf("%d callers: %d coalesced + %d passes (%d led)", callers, coalesced, src.passes, led)
	}

	// New version → the old flight (were it still open) cannot be joined.
	before := src.passes
	src.version = 2
	if _, err := drv.Answer(context.Background(), src, []Query{q}); err != nil {
		t.Fatal(err)
	}
	if src.passes != before+1 {
		t.Fatalf("version bump did not force a fresh evaluation")
	}

	// Presence and opt-out queries evaluate solo.
	solo := Query{Kind: KindPresence, Ts: 0, Te: 60, SLocs: qset[:1], OID: 1}
	optOut := q
	optOut.DisableCoalescing = true
	_, ledBefore := drv.Counts()
	for _, q := range []Query{solo, optOut} {
		if _, err := drv.Answer(context.Background(), src, []Query{q}); err != nil {
			t.Fatal(err)
		}
	}
	if _, led := drv.Counts(); led != ledBefore {
		t.Fatalf("presence / opt-out queries opened %d flights", led-ledBefore)
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
	if p.Cols != 1 || len(p.OIDs) != len(p.Rows) {
		t.Fatalf("misaligned partial: %d oids, %d cells over %d columns", len(p.OIDs), len(p.Rows), p.Cols)
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

// TestSharedPassHotAllocBudget pins what the shared pass allocates over a
// cached window whose memo holds every summary: a Nested-Loop Do and a
// DoPartial each pay for the driver's and the oracle's per-query bookkeeping
// — the oracle's columns are two slices by window position — and for the
// answer, a partial's rows being one row-major slice sized from the window.
// Nothing is per object: with an object map in the oracle, a row slice per
// object and a sort of the window's keys per pass they read 36 and 61.
func TestSharedPassHotAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	space, recs := rankIndexData(t)
	tb := iupt.NewTable()
	for _, rec := range recs {
		tb.Append(rec)
	}
	eng := NewEngine(space, Options{})
	q := Query{Algorithm: AlgoNestedLoop, K: 10, Te: 600, SLocs: allSLocs(space)}
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"Nested-Loop Do", 28, func() error { _, err := eng.Do(ctx, tb, q); return err }},
		{"DoPartial", 14, func() error { _, err := eng.DoPartial(ctx, tb, q); return err }},
	} {
		ask := func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		}
		ask() // materialize the window and fill the memo
		if allocs := testing.AllocsPerRun(100, ask); allocs > c.budget {
			t.Errorf("hot %s allocates %v/op, budget %v", c.name, allocs, c.budget)
		} else {
			t.Logf("hot %s allocates %v/op", c.name, allocs)
		}
	}
}
