package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// TestMonitorValidation: Subscribe rejects every malformed feed request up
// front, before any monitor exists.
func TestMonitorValidation(t *testing.T) {
	fig := indoor.Figure1Space()
	e := NewEngine(fig.Space, Options{})
	live := &liveTable{eng: e, tb: iupt.NewTable()}
	ok := Query{Kind: KindTopK, Algorithm: AlgoBestFirst, K: 1, Window: 10, SLocs: fig.SLocs[:2]}
	with := func(edit func(*Query)) Query {
		q := ok
		edit(&q)
		return q
	}
	for _, tc := range []struct {
		name string
		cfg  SubscribeConfig
		q    Query
	}{
		{"nil table", SubscribeConfig{Barrier: &live.mu}, ok},
		{"nil barrier", SubscribeConfig{Table: live.tb}, ok},
		{"DisableCoalescing", live.cfg(), with(func(q *Query) { q.DisableCoalescing = true })},
		{"non-top-k kind", live.cfg(), with(func(q *Query) { q.Kind = KindFlow; q.SLocs = fig.SLocs[:1] })},
		{"zero window", live.cfg(), with(func(q *Query) { q.Window = 0 })},
		{"negative window", live.cfg(), with(func(q *Query) { q.Window = -5 })},
		{"k = 0", live.cfg(), with(func(q *Query) { q.K = 0 })},
		{"empty query set", live.cfg(), with(func(q *Query) { q.SLocs = nil })},
		{"unknown S-location", live.cfg(), with(func(q *Query) { q.SLocs = []indoor.SLocID{99} })},
		{"duplicate S-location", live.cfg(), with(func(q *Query) { q.SLocs = []indoor.SLocID{fig.SLocs[0], fig.SLocs[0]} })},
	} {
		if sub, err := e.Subscribe(context.Background(), tc.cfg, tc.q); err == nil {
			sub.Close()
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if st := e.MonitorStats(); len(st) != 0 {
		t.Errorf("rejected subscriptions left %d monitors behind", len(st))
	}
	sub, err := e.Subscribe(context.Background(), live.cfg(), ok)
	if err != nil {
		t.Fatalf("well-formed subscription rejected: %v", err)
	}
	sub.Close()
}

// TestMonitorSlidingWindow subscribes over the paper-example records and
// checks the window semantics: with the full example in the window, the top-1
// is r6; one far-future record slides the window past every example record,
// and the flows drop to zero.
func TestMonitorSlidingWindow(t *testing.T) {
	f := newPaperFixture()
	e := rawEngine(f, NormalizedValid, EngineDP)
	live := &liveTable{eng: e, tb: f.table}
	sub, err := e.Subscribe(context.Background(), live.cfg(), Query{
		Kind: KindTopK, Algorithm: AlgoBestFirst, K: 1, Window: 8,
		SLocs: []indoor.SLocID{f.fig.SLocs[0], f.fig.SLocs[5]},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	first := awaitUpdate(t, sub, func(Update) bool { return true })
	if first.Ts != 0 || first.Te != 8 || first.Records != f.table.Len() {
		t.Fatalf("snapshot covers [%d, %d] over %d records, want [0, 8] over %d", first.Ts, first.Te, first.Records, f.table.Len())
	}
	if res := first.Results; res[0].SLoc != f.fig.SLocs[5] || res[0].Flow <= 0 {
		t.Errorf("window [0,8] top-1 = %+v, want r6 with positive flow", res[0])
	}
	// p3 borders r3 and r4 only, so the record itself adds nothing to r1/r6.
	live.ingest(iupt.Record{OID: 7, T: 1000, Samples: iupt.SampleSet{{Loc: f.fig.PLocs[2], Prob: 1}}})
	far := awaitUpdate(t, sub, func(u Update) bool { return u.Records == first.Records+1 })
	if far.Ts != 992 || far.Te != 1000 {
		t.Errorf("window after the far-future record = [%d, %d], want [992, 1000]", far.Ts, far.Te)
	}
	if far.Results[0].Flow != 0 || far.Stats.ObjectsTotal != 1 {
		t.Errorf("slid-past window: top flow %v over %d objects, want 0 over 1", far.Results[0].Flow, far.Stats.ObjectsTotal)
	}
	if st := e.MonitorStats(); len(st) != 1 || st[0].Observed != 1 {
		t.Errorf("monitor stats = %+v, want one monitor that observed 1 record", st)
	}
}

// TestMonitorCaching: a second identical subscriber is served the retained
// result — its snapshot costs no evaluation — and a new record does.
func TestMonitorCaching(t *testing.T) {
	f := newPaperFixture()
	e := rawEngine(f, NormalizedValid, EngineDP)
	live := &liveTable{eng: e, tb: f.table}
	q := Query{Kind: KindTopK, Algorithm: AlgoBestFirst, K: len(f.fig.SLocs), Window: 8, SLocs: f.fig.SLocs[:]}
	subA, err := e.Subscribe(context.Background(), live.cfg(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer subA.Close()
	a := awaitUpdate(t, subA, func(Update) bool { return true })
	evals := e.MonitorStats()[0].Evals
	if evals != 1 {
		t.Fatalf("first snapshot took %d evaluations, want 1", evals)
	}
	subB, err := e.Subscribe(context.Background(), live.cfg(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer subB.Close()
	b := awaitUpdate(t, subB, func(Update) bool { return true })
	bitEqual(t, "second subscriber's snapshot", b.Results, a.Results)
	if st := e.MonitorStats(); len(st) != 1 || st[0].Subscribers != 2 || st[0].Evals != evals {
		t.Errorf("after an identical second subscriber: %+v, want one monitor, 2 subscribers, still %d evals", st, evals)
	}
	// A new record makes the retained result stale and changes r1's flow.
	live.ingest(iupt.Record{OID: 9, T: 8, Samples: iupt.SampleSet{{Loc: f.fig.PLocs[6], Prob: 1.0}}})
	c := awaitUpdate(t, subA, func(u Update) bool { return u.Records == a.Records+1 })
	if len(c.Results) != len(a.Results) || resultsEqual(c.Results, a.Results) {
		t.Fatalf("update after the new record = %+v, want the same size as and different flows from %+v", c.Results, a.Results)
	}
	if got := e.MonitorStats()[0].Evals; got != evals+1 {
		t.Errorf("evals after one ingest = %d, want %d", got, evals+1)
	}
}

// TestMonitorMatchesBatchQuery: as the table grows, the monitor's answer
// equals a direct TopK over the same window.
func TestMonitorMatchesBatchQuery(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(33))
	src := randTable(rng, fig, 8, 30)
	e := NewEngine(fig.Space, Options{})
	live := &liveTable{eng: e, tb: iupt.NewTable()}
	m := live.monitor(fig.SLocs[:], 3, 10)
	recs := src.SortedRecords()
	next := 0
	for _, now := range []iupt.Time{5, 10, 17, 30} {
		for ; next < len(recs) && recs[next].T <= now; next++ {
			live.ingest(recs[next])
		}
		got := current(m)
		maxT := recs[next-1].T // SortedRecords is time-ordered
		if got.Te != maxT || got.Ts != max(0, maxT-10) {
			t.Fatalf("now=%d: window = [%d, %d], want [%d, %d]", now, got.Ts, got.Te, max(0, maxT-10), maxT)
		}
		want, _, err := e.TopK(live.tb, fig.SLocs[:], 3, got.Ts, got.Te, AlgoBestFirst)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got.Results[i].SLoc != want[i].SLoc || math.Abs(got.Results[i].Flow-want[i].Flow) > 1e-9 {
				t.Errorf("now=%d rank %d: got %+v, want %+v", now, i, got.Results[i], want[i])
			}
		}
	}
}

func TestMonitorConcurrentUse(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(44))
	src := randTable(rng, fig, 6, 20)
	e := NewEngine(fig.Space, Options{})
	live := &liveTable{eng: e, tb: iupt.NewTable()}
	m := live.monitor(fig.SLocs[:], 2, 10)
	recs := src.SortedRecords()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(recs); i += 4 {
				live.ingest(recs[i])
				if u := current(m); u.Records == 0 || u.Records > len(recs) {
					t.Errorf("update covers %d records of %d", u.Records, len(recs))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if u := current(m); u.Records != len(recs) {
		t.Errorf("final update covers %d records, want %d", u.Records, len(recs))
	}
}

func TestTopKDensity(t *testing.T) {
	f := newPaperFixture()
	e := rawEngine(f, NormalizedValid, EngineDP)
	q := []indoor.SLocID{f.fig.SLocs[0], f.fig.SLocs[5]}
	res, _, err := e.TopKDensity(f.table, q, 2, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	// Raw flows: r6 = 2.12, r1 = 0.5. Areas: r6 = 40*5 = 200, r1 = 10*15
	// = 150. Densities: r6 = 0.0106, r1 = 0.00333 -> r6 still first.
	if res[0].SLoc != f.fig.SLocs[5] {
		t.Errorf("top density = %v", res[0])
	}
	wantR6 := 2.12 / e.SLocArea(f.fig.SLocs[5])
	if math.Abs(res[0].Flow-wantR6) > 1e-9 {
		t.Errorf("density(r6) = %v, want %v", res[0].Flow, wantR6)
	}
	// Density can reorder: a tiny location with modest flow beats a huge
	// one. Compare r1 (area 150, flow 0.5) against r6 scaled: density(r1)
	// = 0.00333; verified ordering above covers the arithmetic.
	if res[1].Flow >= res[0].Flow {
		t.Error("densities must be sorted descending")
	}
}

func TestTopKDensityReordersBySize(t *testing.T) {
	// Two-room space: big room with flow 1, tiny room with flow 1 —
	// density ranks the tiny room first even though raw flows tie.
	b := indoor.NewBuilder()
	big := b.AddPartition("big", indoor.Room, 0, indoorRect(0, 0, 20, 10))
	tiny := b.AddPartition("tiny", indoor.Room, 0, indoorRect(20, 0, 22, 2))
	d := b.AddDoor(big, tiny, indoorPt(20, 1))
	p := b.AddPartitioningPLoc(d)
	sBig := b.AddSLocation("big", big)
	sTiny := b.AddSLocation("tiny", tiny)
	space, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tb := iupt.NewTable()
	tb.Append(iupt.Record{OID: 1, T: 1, Samples: iupt.SampleSet{{Loc: p, Prob: 1}}})
	tb.Append(iupt.Record{OID: 1, T: 2, Samples: iupt.SampleSet{{Loc: p, Prob: 1}}})
	e := NewEngine(space, Options{})
	res, _, err := e.TopKDensity(tb, []indoor.SLocID{sBig, sTiny}, 2, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].SLoc != sTiny {
		t.Errorf("density top-1 = %v, want tiny room", res[0])
	}
	flows, _, err := e.TopK(tb, []indoor.SLocID{sBig, sTiny}, 2, 0, 10, AlgoNestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(flows[0].Flow-flows[1].Flow) > 1e-12 {
		t.Fatalf("raw flows should tie: %v", flows)
	}
}

func TestTopKDensityValidation(t *testing.T) {
	f := newPaperFixture()
	e := NewEngine(f.fig.Space, Options{})
	if _, _, err := e.TopKDensity(f.table, nil, 1, 1, 8); err == nil {
		t.Error("empty query should fail")
	}
}

// Small geometry helpers so this test file avoids importing geom directly.
func indoorRect(x1, y1, x2, y2 float64) geomRect {
	return geomRect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

func indoorPt(x, y float64) geomPoint { return geomPoint{X: x, Y: y} }

// TestParallelismEquivalence: Options.Workers changes wall-clock only —
// results and statistics are identical to the sequential run.
func TestParallelismEquivalence(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(55))
	tb := randTable(rng, fig, 15, 40)
	serial := NewEngine(fig.Space, Options{})
	parallel := NewEngine(fig.Space, Options{Workers: 4})

	a, aStats, err := serial.TopK(tb, fig.SLocs[:], len(fig.SLocs), 0, 40, AlgoNestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	b, bStats, err := parallel.TopK(tb, fig.SLocs[:], len(fig.SLocs), 0, 40, AlgoNestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].SLoc != b[i].SLoc || math.Abs(a[i].Flow-b[i].Flow) > 1e-12 {
			t.Errorf("rank %d: serial %+v parallel %+v", i, a[i], b[i])
		}
	}
	if aStats.ObjectsComputed != bStats.ObjectsComputed ||
		aStats.ObjectsTotal != bStats.ObjectsTotal ||
		aStats.SequenceBreaks != bStats.SequenceBreaks ||
		aStats.SampleSetsReduced != bStats.SampleSetsReduced {
		t.Errorf("stats differ: serial %+v parallel %+v", aStats, bStats)
	}
}
