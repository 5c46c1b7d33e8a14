package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// randTable builds a random IUPT over the Figure-1 space: nObjects objects
// reporting every 1-3 ticks over [0, span], each report a random sample set.
func randTable(rng *rand.Rand, fig *indoor.Figure1, nObjects, span int) *iupt.Table {
	tb := iupt.NewTable()
	plocs := fig.PLocs[:]
	for oid := 1; oid <= nObjects; oid++ {
		t := rng.Intn(3)
		for t <= span {
			tb.Append(iupt.Record{
				OID:     iupt.ObjectID(oid),
				T:       iupt.Time(t),
				Samples: randSampleSet(rng, plocs, 4),
			})
			t += rng.Intn(3) + 1
		}
	}
	return tb
}

// TestAlgorithmsAgreeOnFlows: with k = |Q| (full ranking), Naive, NL and BF
// must produce identical per-location flows on arbitrary inputs.
func TestAlgorithmsAgreeOnFlows(t *testing.T) {
	fig := indoor.Figure1Space()
	f := func(seed int64, orgFlag bool) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := randTable(rng, fig, rng.Intn(8)+2, 20)
		q := make([]indoor.SLocID, 0, 6)
		for _, s := range fig.SLocs {
			if rng.Intn(3) > 0 {
				q = append(q, s)
			}
		}
		if len(q) == 0 {
			q = append(q, fig.SLocs[0])
		}
		e := NewEngine(fig.Space, Options{DisableReduction: orgFlag})
		k := len(q)
		var flows [3]map[indoor.SLocID]float64
		for i, algo := range []Algorithm{AlgoNaive, AlgoNestedLoop, AlgoBestFirst} {
			res, _, err := e.TopK(tb, q, k, 0, 20, algo)
			if err != nil || len(res) != k {
				return false
			}
			flows[i] = map[indoor.SLocID]float64{}
			for _, r := range res {
				flows[i][r.SLoc] = r.Flow
			}
		}
		for _, s := range q {
			if math.Abs(flows[0][s]-flows[1][s]) > 1e-9 || math.Abs(flows[0][s]-flows[2][s]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAlgorithmsAgreeWhenDPRescales: one object reports the same two-sample
// set {a: 0.5, b: 0.5} for 160 ticks, where a and b each connect to
// themselves but not to each other — two valid paths of mass 0.5^160 each,
// far past the DP's rescaleThreshold, so the summary carries a LogScale. In
// UnnormalizedTotal mode the flow is that tiny mass itself, and every way of
// asking for it must return the same bits: only ObjectSummary.Presence may
// interpret PassMass.
func TestAlgorithmsAgreeWhenDPRescales(t *testing.T) {
	fig := indoor.Figure1Space()
	sp := fig.Space
	var a, b indoor.PLocID
	found := false
	// M_IL[x, x] = Cells(x) is never empty, and M_IL is symmetric.
	for _, x := range fig.PLocs {
		for _, y := range fig.PLocs {
			if !found && len(sp.MIL(x, y)) == 0 {
				a, b, found = x, y, true
			}
		}
	}
	if !found {
		t.Fatal("Figure 1 has no self-connected, mutually unconnected P-location pair")
	}
	const ticks = 160
	tb := iupt.NewTable()
	for tk := 0; tk < ticks; tk++ {
		tb.Append(iupt.Record{OID: 1, T: iupt.Time(tk), Samples: iupt.SampleSet{{Loc: a, Prob: 0.5}, {Loc: b, Prob: 0.5}}})
	}
	// DisableInterMerge keeps the 160 identical sets from merging into one.
	e := NewEngine(sp, Options{Presence: UnnormalizedTotal, DisableInterMerge: true})
	red, _ := e.ReduceData(tb.SequencesInRange(0, ticks)[1], nil)
	sum, _ := e.Summarize(red.Seq)
	if len(red.Seq) < 150 || sum.LogScale == 0 {
		t.Fatalf("fixture no longer rescales: %d reduced sets, LogScale %v", len(red.Seq), sum.LogScale)
	}

	ctx := context.Background()
	q := fig.SLocs[:]
	do := func(label string, qu Query) []Result {
		t.Helper()
		qu.Ts, qu.Te = 0, ticks
		resp, err := e.Do(ctx, tb, qu)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return resp.Results
	}
	want := do("naive", Query{Kind: KindTopK, Algorithm: AlgoNaive, K: len(q), SLocs: q})
	if want[0].Flow <= 0 || want[0].Flow > rescaleThreshold {
		t.Fatalf("top flow %v, want a positive mass below the rescale threshold", want[0].Flow)
	}
	bitEqual(t, "nested-loop", do("nested-loop", Query{Kind: KindTopK, Algorithm: AlgoNestedLoop, K: len(q), SLocs: q}), want)
	bitEqual(t, "best-first", do("best-first", Query{Kind: KindTopK, Algorithm: AlgoBestFirst, K: len(q), SLocs: q}), want)

	pq := Query{Kind: KindTopK, K: len(q), Ts: 0, Te: ticks, SLocs: q}
	p, err := e.DoPartial(ctx, tb, pq)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := e.FinishPartial(pq, p)
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, "DoPartial→FinishPartial", fin.Results, want)

	density := make([]Result, 0, len(want))
	for _, w := range want {
		if got := do("flow", Query{Kind: KindFlow, SLocs: []indoor.SLocID{w.SLoc}}); got[0].Flow != w.Flow {
			t.Errorf("KindFlow(%d) = %v, want %v (bit-identical)", w.SLoc, got[0].Flow, w.Flow)
		}
		density = append(density, Result{SLoc: w.SLoc, Flow: w.Flow / e.SLocArea(w.SLoc)})
	}
	bitEqual(t, "density", do("density", Query{Kind: KindDensity, K: len(q), SLocs: q}), rankTopK(density, len(density)))
}

// TestBestFirstTopKPrefix: BF with k < |Q| returns the first k entries of
// the full ranking (flows compared with tolerance; ties broken by id).
func TestBestFirstTopKPrefix(t *testing.T) {
	fig := indoor.Figure1Space()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := randTable(rng, fig, rng.Intn(10)+3, 25)
		q := fig.SLocs[:]
		e := NewEngine(fig.Space, Options{})
		full, _, err := e.TopK(tb, q, len(q), 0, 25, AlgoNestedLoop)
		if err != nil {
			return false
		}
		for k := 1; k <= len(q); k++ {
			topk, _, err := e.TopK(tb, q, k, 0, 25, AlgoBestFirst)
			if err != nil || len(topk) != k {
				return false
			}
			for i := 0; i < k; i++ {
				if math.Abs(topk[i].Flow-full[i].Flow) > 1e-9 {
					return false
				}
				// Identical ranking unless flows tie within tolerance.
				if topk[i].SLoc != full[i].SLoc &&
					math.Abs(topk[i].Flow-full[i].Flow) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBestFirstMatchesRankingExactly: for every k, BF returns exactly the
// first k entries — S-location AND bit-identical flow — of the canonical
// full ranking. The sharp case is a flow tie at the k boundary (equal flows,
// including the zero-flow tail of a sparse table): the search must confirm
// tied locations in ascending id order, not heap-arrival order, or its k-th
// result diverges from Naive/NL and from a router's distributed fan-in.
func TestBestFirstMatchesRankingExactly(t *testing.T) {
	fig := indoor.Figure1Space()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Single prob-1.0 samples pin each object to one cell per report, so
		// per-location flows take few distinct values and exact ties abound.
		tb := iupt.NewTable()
		for oid := 1; oid <= rng.Intn(6)+2; oid++ {
			t0 := rng.Intn(3)
			for t0 <= 8 {
				tb.Append(iupt.Record{
					OID:     iupt.ObjectID(oid),
					T:       iupt.Time(t0),
					Samples: iupt.SampleSet{{Loc: fig.PLocs[rng.Intn(len(fig.PLocs))], Prob: 1.0}},
				})
				t0 += rng.Intn(3) + 1
			}
		}
		// Descending query order reverses the heap's arrival order, so a
		// FIFO tie-break would confirm the HIGHEST tied location first.
		q := make([]indoor.SLocID, len(fig.SLocs))
		for i, s := range fig.SLocs {
			q[len(q)-1-i] = s
		}
		e := NewEngine(fig.Space, Options{})
		full, _, err := e.TopK(tb, q, len(q), 0, 8, AlgoNaive)
		if err != nil {
			return false
		}
		for k := 1; k <= len(q); k++ {
			got, _, err := e.TopK(tb, q, k, 0, 8, AlgoBestFirst)
			if err != nil || len(got) != k {
				return false
			}
			for i := 0; i < k; i++ {
				if got[i].SLoc != full[i].SLoc || got[i].Flow != full[i].Flow {
					t.Logf("seed %d k %d: BF[%d] = %+v, ranking has %+v", seed, k, i, got[i], full[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBestFirstPrunesMore: on the paper fixture with a selective query, BF
// computes no more objects than NL.
func TestBestFirstPrunesMore(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(7))
	tb := randTable(rng, fig, 30, 30)
	q := fig.SLocs[:]
	e := NewEngine(fig.Space, Options{})
	_, nlStats, err := e.TopK(tb, q, 1, 0, 30, AlgoNestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	_, bfStats, err := e.TopK(tb, q, 1, 0, 30, AlgoBestFirst)
	if err != nil {
		t.Fatal(err)
	}
	if bfStats.ObjectsComputed > nlStats.ObjectsComputed {
		t.Errorf("BF computed %d objects, NL %d — BF should not compute more",
			bfStats.ObjectsComputed, nlStats.ObjectsComputed)
	}
	if bfStats.HeapPops == 0 {
		t.Error("BF should record heap pops")
	}
}

// TestNaiveRepeatsWork: Naive enumerates at least as many paths as NL on a
// multi-location query (the motivation for Algorithm 3).
func TestNaiveRepeatsWork(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(11))
	tb := randTable(rng, fig, 10, 20)
	q := fig.SLocs[:]
	e := NewEngine(fig.Space, Options{Engine: EngineEnum})
	_, naiveStats, err := e.TopK(tb, q, len(q), 0, 20, AlgoNaive)
	if err != nil {
		t.Fatal(err)
	}
	_, nlStats, err := e.TopK(tb, q, len(q), 0, 20, AlgoNestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	if naiveStats.PathsEnumerated < nlStats.PathsEnumerated {
		t.Errorf("naive enumerated %d paths, NL %d", naiveStats.PathsEnumerated, nlStats.PathsEnumerated)
	}
	if naiveStats.ObjectsComputed != nlStats.ObjectsComputed {
		t.Errorf("distinct objects computed should match: naive %d, NL %d",
			naiveStats.ObjectsComputed, nlStats.ObjectsComputed)
	}
}

func TestTopKValidation(t *testing.T) {
	fig := indoor.Figure1Space()
	tb := iupt.NewTable()
	e := NewEngine(fig.Space, Options{})
	if _, _, err := e.TopK(tb, []indoor.SLocID{0}, 0, 0, 10, AlgoNaive); err == nil {
		t.Error("k=0 should fail")
	}
	if _, _, err := e.TopK(tb, nil, 1, 0, 10, AlgoNaive); err == nil {
		t.Error("empty Q should fail")
	}
	if _, _, err := e.TopK(tb, []indoor.SLocID{99}, 1, 0, 10, AlgoNaive); err == nil {
		t.Error("unknown S-location should fail")
	}
	if _, _, err := e.TopK(tb, []indoor.SLocID{0, 0}, 1, 0, 10, AlgoNaive); err == nil {
		t.Error("duplicate S-location should fail")
	}
	if _, _, err := e.TopK(tb, []indoor.SLocID{0}, 1, 0, 10, Algorithm(9)); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestTopKEmptyTable(t *testing.T) {
	fig := indoor.Figure1Space()
	tb := iupt.NewTable()
	q := fig.SLocs[:]
	for _, algo := range []Algorithm{AlgoNaive, AlgoNestedLoop, AlgoBestFirst} {
		e := NewEngine(fig.Space, Options{})
		res, stats, err := e.TopK(tb, q, 3, 0, 10, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(res) != 3 {
			t.Fatalf("%v: len = %d, want 3 (zero-padded)", algo, len(res))
		}
		for _, r := range res {
			if r.Flow != 0 {
				t.Errorf("%v: flow = %v, want 0", algo, r.Flow)
			}
		}
		if stats.ObjectsTotal != 0 {
			t.Errorf("%v: ObjectsTotal = %d", algo, stats.ObjectsTotal)
		}
	}
}

func TestTopKClampsK(t *testing.T) {
	f := newPaperFixture()
	e := NewEngine(f.fig.Space, Options{})
	res, _, err := e.TopK(f.table, f.fig.SLocs[:2], 10, 1, 8, AlgoNestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Errorf("len = %d, want 2 (clamped to |Q|)", len(res))
	}
}

func TestRankTopKDeterministicTies(t *testing.T) {
	in := []Result{{SLoc: 5, Flow: 1}, {SLoc: 2, Flow: 1}, {SLoc: 9, Flow: 3}}
	out := rankTopK(in, 2)
	if out[0].SLoc != 9 || out[1].SLoc != 2 {
		t.Errorf("rankTopK = %v", out)
	}
}

// TestFlowMatchesTopK: Flow(q) equals the flow reported for q by a full
// TkPLQ ranking.
func TestFlowMatchesTopK(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(21))
	tb := randTable(rng, fig, 12, 15)
	e := NewEngine(fig.Space, Options{})
	res, _, err := e.TopK(tb, fig.SLocs[:], len(fig.SLocs), 0, 15, AlgoNestedLoop)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		flow, _ := e.Flow(tb, r.SLoc, 0, 15)
		if math.Abs(flow-r.Flow) > 1e-9 {
			t.Errorf("Flow(%d) = %v, TopK reported %v", r.SLoc, flow, r.Flow)
		}
	}
}

// TestFlowUpperBound: any S-location's flow never exceeds the number of
// objects (presence ≤ 1 per object — the bound Best-First relies on).
func TestFlowUpperBound(t *testing.T) {
	fig := indoor.Figure1Space()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 1
		tb := randTable(rng, fig, n, 15)
		e := NewEngine(fig.Space, Options{})
		for _, s := range fig.SLocs {
			flow, _ := e.Flow(tb, s, 0, 15)
			if flow < -1e-9 || flow > float64(n)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
