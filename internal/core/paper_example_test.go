package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// paperFixture wires the Figure 1 space with the Table 2 IUPT so tests can
// check the paper's worked examples end to end.
type paperFixture struct {
	fig   *indoor.Figure1
	table *iupt.Table
}

// Table 2 of the paper. Timestamps t1..t8 map to 1..8.
func newPaperFixture() *paperFixture {
	fig := indoor.Figure1Space()
	p := fig.PLocs // p[0] is the paper's p1, etc.
	tb := iupt.NewTable()
	add := func(oid iupt.ObjectID, t iupt.Time, samples ...iupt.Sample) {
		tb.Append(iupt.Record{OID: oid, T: t, Samples: samples})
	}
	s := func(idx int, prob float64) iupt.Sample {
		return iupt.Sample{Loc: p[idx-1], Prob: prob}
	}
	add(1, 1, s(4, 1.0))
	add(2, 1, s(1, 0.5), s(2, 0.5))
	add(3, 2, s(2, 0.6), s(3, 0.4))
	add(1, 3, s(9, 1.0))
	add(2, 3, s(2, 0.7), s(4, 0.3))
	add(1, 4, s(8, 1.0))
	add(2, 5, s(5, 0.3), s(6, 0.6), s(8, 0.1))
	add(3, 5, s(2, 0.4), s(3, 0.6))
	add(2, 6, s(5, 0.2), s(6, 0.3), s(8, 0.5))
	add(3, 8, s(3, 1.0))
	return &paperFixture{fig: fig, table: tb}
}

func approx(t *testing.T, name string, got, want, eps float64) {
	t.Helper()
	if math.Abs(got-want) > eps {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// rawEngine processes original sequences (no reduction), which is what the
// paper's worked examples compute on.
func rawEngine(f *paperFixture, mode PresenceMode, kind EngineKind) *Engine {
	return NewEngine(f.fig.Space, Options{
		Engine:           kind,
		Presence:         mode,
		DisableReduction: true,
	})
}

// TestPaperExample2 checks o3's object presences: Φ(r6, o3) = 0.12 and
// Φ(r1, o3) = 0 (paper Example 2 — identical in both presence modes since
// all of o3's Cartesian paths are valid).
func TestPaperExample2(t *testing.T) {
	f := newPaperFixture()
	for _, kind := range []EngineKind{EngineEnum, EngineDP} {
		for _, mode := range []PresenceMode{NormalizedValid, UnnormalizedTotal} {
			e := rawEngine(f, mode, kind)
			r6 := e.Presence(f.table, f.fig.SLocs[5], 3, 1, 8)
			approx(t, "Φ(r6,o3) "+kind.String()+"/"+mode.String(), r6, 0.12, 1e-12)
			r1 := e.Presence(f.table, f.fig.SLocs[0], 3, 1, 8)
			approx(t, "Φ(r1,o3) "+kind.String()+"/"+mode.String(), r1, 0, 1e-12)
		}
	}
}

// TestPaperExample3Presences checks the per-object presences of Example 3.
// o1: Φ(r1)=0.5, Φ(r6)=1. o2: Φ(r1)=0; Φ(r6) is 0.85 in the unnormalized
// reading the paper's arithmetic uses, and 1.0 under Equation 1 as printed
// (the valid-path mass for o2 is 0.85; see DESIGN.md on the discrepancy).
func TestPaperExample3Presences(t *testing.T) {
	f := newPaperFixture()
	for _, kind := range []EngineKind{EngineEnum, EngineDP} {
		un := rawEngine(f, UnnormalizedTotal, kind)
		no := rawEngine(f, NormalizedValid, kind)

		approx(t, "Φ(r1,o1)", un.Presence(f.table, f.fig.SLocs[0], 1, 1, 8), 0.5, 1e-12)
		approx(t, "Φ(r6,o1)", un.Presence(f.table, f.fig.SLocs[5], 1, 1, 8), 1.0, 1e-12)

		approx(t, "Φ(r6,o2) unnormalized", un.Presence(f.table, f.fig.SLocs[5], 2, 1, 8), 0.85, 1e-12)
		approx(t, "Φ(r6,o2) normalized", no.Presence(f.table, f.fig.SLocs[5], 2, 1, 8), 1.0, 1e-12)
		approx(t, "Φ(r1,o2)", un.Presence(f.table, f.fig.SLocs[0], 2, 1, 8), 0, 1e-12)
	}
}

// TestPaperExample3Flows checks the indoor flows: Θ(r6) = 1.97 and
// Θ(r1) = 0.5 with the paper's arithmetic; 2.12 / 0.5 under Equation 1.
func TestPaperExample3Flows(t *testing.T) {
	f := newPaperFixture()
	un := rawEngine(f, UnnormalizedTotal, EngineEnum)
	flow6, stats := un.Flow(f.table, f.fig.SLocs[5], 1, 8)
	approx(t, "Θ(r6) unnormalized", flow6, 1.97, 1e-12)
	if stats.ObjectsTotal != 3 {
		t.Errorf("ObjectsTotal = %d, want 3", stats.ObjectsTotal)
	}
	flow1, _ := un.Flow(f.table, f.fig.SLocs[0], 1, 8)
	approx(t, "Θ(r1) unnormalized", flow1, 0.5, 1e-12)

	no := rawEngine(f, NormalizedValid, EngineDP)
	flow6n, _ := no.Flow(f.table, f.fig.SLocs[5], 1, 8)
	approx(t, "Θ(r6) normalized", flow6n, 2.12, 1e-12)
	flow1n, _ := no.Flow(f.table, f.fig.SLocs[0], 1, 8)
	approx(t, "Θ(r1) normalized", flow1n, 0.5, 1e-12)
}

// TestPaperExample4TopK checks that the top-1 query over Q = {r1, r6}
// returns r6, with every algorithm and in every mode.
func TestPaperExample4TopK(t *testing.T) {
	f := newPaperFixture()
	q := []indoor.SLocID{f.fig.SLocs[0], f.fig.SLocs[5]}
	for _, kind := range []EngineKind{EngineEnum, EngineDP} {
		for _, mode := range []PresenceMode{NormalizedValid, UnnormalizedTotal} {
			for _, algo := range []Algorithm{AlgoNaive, AlgoNestedLoop, AlgoBestFirst} {
				e := rawEngine(f, mode, kind)
				res, _, err := e.TopK(f.table, q, 1, 1, 8, algo)
				if err != nil {
					t.Fatalf("%v/%v/%v: %v", kind, mode, algo, err)
				}
				if len(res) != 1 || res[0].SLoc != f.fig.SLocs[5] {
					t.Errorf("%v/%v/%v: top-1 = %+v, want r6", kind, mode, algo, res)
				}
			}
		}
	}
}

// TestPaperFigure4Reduction replays the data reduction walk-through of
// Figure 4 on o2's positioning sequence: intra-merge folds p8 into p6, then
// inter-merge folds the now-identical X3, X4 into one set with averaged
// probabilities, shrinking the Cartesian path bound from 32 to 8.
func TestPaperFigure4Reduction(t *testing.T) {
	f := newPaperFixture()
	e := NewEngine(f.fig.Space, Options{})
	seqs := f.table.SequencesInRange(1, 8)
	red, ok := e.ReduceData(seqs[2], nil)
	if !ok {
		t.Fatal("o2 should not be pruned")
	}
	if len(red.Seq) != 3 {
		t.Fatalf("reduced length = %d, want 3", len(red.Seq))
	}
	x3 := red.Seq[2]
	if len(x3) != 2 {
		t.Fatalf("merged X3 size = %d, want 2", len(x3))
	}
	probs := map[indoor.PLocID]float64{}
	for _, s := range x3 {
		probs[s.Loc] = s.Prob
	}
	approx(t, "prob(p5)", probs[f.fig.PLocs[4]], 0.25, 1e-12)
	approx(t, "prob(p6)", probs[f.fig.PLocs[5]], 0.75, 1e-12)
	// Path-count bound 32 -> 8.
	n := int64(1)
	for _, x := range red.Seq {
		n *= int64(len(x))
	}
	if n != 8 {
		t.Errorf("reduced path bound = %d, want 8", n)
	}
	raw := int64(1)
	for _, ts := range seqs[2] {
		raw *= int64(len(ts.Samples))
	}
	if raw != 36 { // 2*2*3*3 raw Cartesian bound
		t.Errorf("raw path bound = %d, want 36", raw)
	}
}

// TestPaperPSLs checks o3's possible semantic locations: r3, r4 and r6
// (paper §3.2), so a query set {r1, r2, r5} prunes o3 entirely.
func TestPaperPSLs(t *testing.T) {
	f := newPaperFixture()
	e := NewEngine(f.fig.Space, Options{})
	seqs := f.table.SequencesInRange(1, 8)
	red, ok := e.ReduceData(seqs[3], nil)
	if !ok {
		t.Fatal("unqueried reduction should succeed")
	}
	want := []indoor.SLocID{f.fig.SLocs[2], f.fig.SLocs[3], f.fig.SLocs[5]}
	if len(red.PSLs) != len(want) {
		t.Fatalf("PSLs = %v, want %v", red.PSLs, want)
	}
	for i := range want {
		if red.PSLs[i] != want[i] {
			t.Fatalf("PSLs = %v, want %v", red.PSLs, want)
		}
	}
	// Query {r1, r2, r5} must prune o3.
	query := map[indoor.SLocID]bool{
		f.fig.SLocs[0]: true, f.fig.SLocs[1]: true, f.fig.SLocs[4]: true,
	}
	if _, ok := e.ReduceData(seqs[3], query); ok {
		t.Error("o3 should be pruned for query {r1,r2,r5}")
	}
	// But not with reduction disabled.
	eOrg := NewEngine(f.fig.Space, Options{DisableReduction: true})
	if _, ok := eOrg.ReduceData(seqs[3], query); !ok {
		t.Error("ORG mode must not prune")
	}
}

// TestReductionIsApproximate documents that inter-merge changes presence
// values (paper §3.2 calls the estimation approximate): o1's presence in r1
// drops from 0.5 (raw) to 0 (reduced), because the run (p4),(p9) collapses.
func TestReductionIsApproximate(t *testing.T) {
	f := newPaperFixture()
	raw := rawEngine(f, NormalizedValid, EngineDP)
	red := NewEngine(f.fig.Space, Options{})
	approx(t, "raw Φ(r1,o1)", raw.Presence(f.table, f.fig.SLocs[0], 1, 1, 8), 0.5, 1e-12)
	approx(t, "reduced Φ(r1,o1)", red.Presence(f.table, f.fig.SLocs[0], 1, 1, 8), 0, 1e-12)
	// Intra-merge alone is lossless: equivalent P-locations have identical
	// M_IL rows, so merging them cannot change any pass probability.
	intraOnly := NewEngine(f.fig.Space, Options{DisableInterMerge: true})
	approx(t, "intra-only Φ(r1,o1)", intraOnly.Presence(f.table, f.fig.SLocs[0], 1, 1, 8), 0.5, 1e-12)
	approx(t, "intra-only Φ(r6,o2)", intraOnly.Presence(f.table, f.fig.SLocs[5], 2, 1, 8), 1.0, 1e-12)
}

// TestPruningStatsOnPaperData: query {r5} keeps only o2 (PSLs of o1 and o3
// miss r5), giving pruning ratio 2/3.
func TestPruningStatsOnPaperData(t *testing.T) {
	f := newPaperFixture()
	e := NewEngine(f.fig.Space, Options{})
	_, stats := e.Flow(f.table, f.fig.SLocs[4], 1, 8)
	if stats.ObjectsTotal != 3 || stats.ObjectsComputed != 1 {
		t.Errorf("stats = %+v, want 3 total / 1 computed", stats)
	}
	approx(t, "pruning ratio", stats.PruningRatio(), 2.0/3.0, 1e-12)
}

// meets reports whether a reduction's PSLs intersect q: the PSL∩Q test of
// Algorithm 1 line 13 as the paper states it, over the stored PSLs.
func meets(psls, q []indoor.SLocID) bool {
	for _, s := range q {
		if slices.Contains(psls, s) {
			return true
		}
	}
	return false
}

// TestReachesMatchesPSLs holds the one PSL∩Q test (reaches over a
// reachMask) to its definition, an intersection with the PSLs, for every
// object of several golden-fleet windows and query sets of 1, 8 and every
// S-location, with each merge on and off; and ReduceData, which takes the
// query as a map, to the same answer, a key mapped to false not counting.
func TestReachesMatchesPSLs(t *testing.T) {
	space, recs := goldenRecords(t)
	tb := iupt.NewTable()
	tb.Append(recs...)
	rng := rand.New(rand.NewSource(52))
	for _, opts := range []Options{{}, {DisableIntraMerge: true}, {DisableInterMerge: true}} {
		e := NewEngine(space, opts)
		for _, ts := range []iupt.Time{0, 2700, 6000, 11700} {
			w := iupt.GroupSequences(tb.RecordsInRange(ts, ts+goldenWindow-1))
			for _, n := range []int{1, 8, space.NumSLocations()} {
				perm := rng.Perm(space.NumSLocations())
				q := make([]indoor.SLocID, n)
				query := make(map[indoor.SLocID]bool, space.NumSLocations())
				for i, p := range perm {
					if i < n {
						q[i] = indoor.SLocID(p)
					}
					query[indoor.SLocID(p)] = i < n
				}
				mask := e.reachMask(q)
				pruned := 0
				for i, seq := range w.Seqs {
					red, _ := e.ReduceData(seq, nil)
					want := meets(red.PSLs, q)
					if got := reaches(red.Seq, mask); got != want {
						t.Fatalf("%+v, window at %d, |Q| = %d, object %d: reaches = %v, PSLs %v meet Q = %v", opts, ts, n, w.OIDs[i], got, red.PSLs, want)
					}
					if _, ok := e.ReduceData(seq, query); ok != want {
						t.Fatalf("%+v, window at %d, |Q| = %d, object %d: ReduceData keeps it = %v, PSLs meet Q = %v", opts, ts, n, w.OIDs[i], ok, want)
					}
					if !want {
						pruned++
					}
				}
				if n == 1 && pruned == 0 {
					t.Errorf("%+v, window at %d: a one-location query pruned no object", opts, ts)
				}
			}
		}
	}
}
