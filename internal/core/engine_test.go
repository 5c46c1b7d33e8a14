package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// randSampleSet builds a random valid sample set over the 9 Figure-1
// P-locations.
func randSampleSet(rng *rand.Rand, plocs []indoor.PLocID, maxSize int) iupt.SampleSet {
	n := rng.Intn(maxSize) + 1
	perm := rng.Perm(len(plocs))[:n]
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		weights[i] = rng.Float64() + 0.05
		total += weights[i]
	}
	out := make(iupt.SampleSet, n)
	for i, pi := range perm {
		out[i] = iupt.Sample{Loc: plocs[pi], Prob: weights[i] / total}
	}
	return out
}

func randSequence(rng *rand.Rand, plocs []indoor.PLocID, maxLen, maxSize int) []iupt.SampleSet {
	n := rng.Intn(maxLen) + 1
	out := make([]iupt.SampleSet, n)
	for i := range out {
		out[i] = randSampleSet(rng, plocs, maxSize)
	}
	return out
}

// impossibleSequence is a random Figure-1 sequence with one or two forced
// impossible steps: p7 (inside c1) followed by p3 (between c3 and c4) has an
// empty M_IL entry, so Summarize cuts there unless StrictPaths is set.
func impossibleSequence(rng *rand.Rand, fig *indoor.Figure1) []iupt.SampleSet {
	seq := randSequence(rng, fig.PLocs[:], 10, 4)
	for f := rng.Intn(2); f >= 0; f-- {
		at := rng.Intn(len(seq) + 1)
		pair := []iupt.SampleSet{{{Loc: fig.PLocs[6], Prob: 1}}, {{Loc: fig.PLocs[2], Prob: 1}}}
		seq = append(seq[:at], append(pair, seq[at:]...)...)
	}
	return seq
}

// summariesEqual compares two summaries' masses within eps, cell by cell
// over the union of their cells; both must be cell-sorted.
func summariesEqual(a, b *ObjectSummary, eps float64) bool {
	if math.Abs(a.ValidMass-b.ValidMass) > eps || !cellSorted(a) || !cellSorted(b) {
		return false
	}
	for _, s := range []*ObjectSummary{a, b} {
		for _, cm := range s.PassMass {
			if math.Abs(a.mass(cm.Cell)-b.mass(cm.Cell)) > eps {
				return false
			}
		}
	}
	return true
}

// cellSorted reports whether the summary's PassMass is strictly ascending by
// cell, the order Presence's binary search relies on.
func cellSorted(s *ObjectSummary) bool {
	for i := 1; i < len(s.PassMass); i++ {
		if s.PassMass[i-1].Cell >= s.PassMass[i].Cell {
			return false
		}
	}
	return true
}

// TestEnumEqualsDP is the central engine property: the path-enumeration
// engine and the dynamic-programming engine produce the same valid mass and
// per-cell pass mass on arbitrary sequences — unsegmented, and through
// Summarize on sequences with impossible steps, where both engines must cut
// into the same segments.
func TestEnumEqualsDP(t *testing.T) {
	fig := indoor.Figure1Space()
	plocs := fig.PLocs[:]
	enum := NewEngine(fig.Space, Options{Engine: EngineEnum})
	dp := NewEngine(fig.Space, Options{Engine: EngineDP})

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randSequence(rng, plocs, 8, 4)
		se, err := enum.summarizeEnum(seq)
		if err != nil {
			return false
		}
		sd := dp.summarizeDP(seq)
		return summariesEqual(se, sd, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}

	segmented := func(seed int64) bool {
		seq := impossibleSequence(rand.New(rand.NewSource(seed)), fig)
		se, fellBack := enum.Summarize(seq)
		sd, _ := dp.Summarize(seq)
		return !fellBack && se.Segments > 1 && se.Segments == sd.Segments && summariesEqual(se, sd, 1e-9)
	}
	if err := quick.Check(segmented, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSummaryInvariants: valid mass within [0,1] (sample masses are 1 per
// step) and pass mass never exceeds valid mass for any cell.
func TestSummaryInvariants(t *testing.T) {
	fig := indoor.Figure1Space()
	plocs := fig.PLocs[:]
	e := NewEngine(fig.Space, Options{})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randSequence(rng, plocs, 10, 4)
		sum := e.summarizeDP(seq)
		if sum.ValidMass < -1e-12 || sum.ValidMass > 1+1e-9 {
			return false
		}
		for _, cm := range sum.PassMass {
			if cm.Mass < -1e-12 || cm.Mass > sum.ValidMass+1e-9 {
				return false
			}
		}
		return cellSorted(sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestIntraMergeLossless: merging equivalent P-locations never changes the
// summary (their M_IL rows are identical).
func TestIntraMergeLossless(t *testing.T) {
	fig := indoor.Figure1Space()
	plocs := fig.PLocs[:]
	e := NewEngine(fig.Space, Options{})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randSequence(rng, plocs, 6, 4)
		merged := make([]iupt.SampleSet, len(seq))
		for i, x := range seq {
			merged[i] = e.intraMerge(x)
		}
		return summariesEqual(e.summarizeDP(seq), e.summarizeDP(merged), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarizeEmptySequence(t *testing.T) {
	fig := indoor.Figure1Space()
	e := NewEngine(fig.Space, Options{})
	sum, fellBack := e.Summarize(nil)
	if fellBack {
		t.Error("empty sequence should not fall back")
	}
	if sum.ValidMass != 0 || len(sum.PassMass) != 0 {
		t.Errorf("empty summary = %+v", sum)
	}
	eEnum := NewEngine(fig.Space, Options{Engine: EngineEnum})
	sum2, _ := eEnum.Summarize(nil)
	if sum2.ValidMass != 0 {
		t.Errorf("enum empty summary = %+v", sum2)
	}
}

func TestSummarizeSingleSet(t *testing.T) {
	fig := indoor.Figure1Space()
	// Single sample set: pass probability uses M_IL[loc,loc] = Cells(loc).
	// p4 has Cells {c1, c6}, so presence in r1 (cell c1) is prob/2.
	seq := []iupt.SampleSet{{{Loc: fig.PLocs[3], Prob: 1.0}}}
	for _, kind := range []EngineKind{EngineEnum, EngineDP} {
		e := NewEngine(fig.Space, Options{Engine: kind})
		sum, _ := e.Summarize(seq)
		if math.Abs(sum.ValidMass-1) > 1e-12 {
			t.Errorf("%v: ValidMass = %v", kind, sum.ValidMass)
		}
		c1 := fig.Space.CellOfSLoc(fig.SLocs[0])
		if p := sum.Presence(c1, NormalizedValid); math.Abs(p-0.5) > 1e-12 {
			t.Errorf("%v: presence = %v, want 0.5", kind, p)
		}
	}
}

func TestNoValidPathsStrict(t *testing.T) {
	fig := indoor.Figure1Space()
	// p7 (inside c1) cannot be followed by p3 (between c3, c4): M_IL empty.
	seq := []iupt.SampleSet{
		{{Loc: fig.PLocs[6], Prob: 1.0}},
		{{Loc: fig.PLocs[2], Prob: 1.0}},
	}
	for _, kind := range []EngineKind{EngineEnum, EngineDP} {
		e := NewEngine(fig.Space, Options{Engine: kind, StrictPaths: true})
		sum, _ := e.Summarize(seq)
		if sum.ValidMass != 0 {
			t.Errorf("%v: ValidMass = %v, want 0", kind, sum.ValidMass)
		}
		for _, cm := range sum.PassMass {
			if cm.Mass != 0 {
				t.Errorf("%v: PassMass[%d] = %v", kind, cm.Cell, cm.Mass)
			}
		}
		// Presence must be 0, not NaN, in both modes.
		if p := sum.Presence(0, NormalizedValid); p != 0 {
			t.Errorf("%v: normalized presence = %v", kind, p)
		}
		if p := sum.Presence(0, UnnormalizedTotal); p != 0 {
			t.Errorf("%v: unnormalized presence = %v", kind, p)
		}
		if sum.Segments != 1 {
			t.Errorf("%v: strict mode must not segment, got %d", kind, sum.Segments)
		}
	}
}

func TestSegmentationOnImpossibleStep(t *testing.T) {
	fig := indoor.Figure1Space()
	c1 := fig.Space.CellOfSLoc(fig.SLocs[0])
	c3 := fig.Space.CellOfSLoc(fig.SLocs[2])
	c4 := fig.Space.CellOfSLoc(fig.SLocs[3])
	// Impossible step p7 -> p3 splits into two singleton segments whose
	// presences combine by the union rule: p7 gives c1 prob 1; p3 gives
	// c3, c4 prob 1/2 each.
	seq := []iupt.SampleSet{
		{{Loc: fig.PLocs[6], Prob: 1.0}},
		{{Loc: fig.PLocs[2], Prob: 1.0}},
	}
	for _, kind := range []EngineKind{EngineEnum, EngineDP} {
		e := NewEngine(fig.Space, Options{Engine: kind})
		sum, _ := e.Summarize(seq)
		if sum.Segments != 2 {
			t.Fatalf("%v: segments = %d, want 2", kind, sum.Segments)
		}
		if p := sum.Presence(c1, NormalizedValid); math.Abs(p-1) > 1e-12 {
			t.Errorf("%v: presence(c1) = %v, want 1", kind, p)
		}
		if p := sum.Presence(c3, NormalizedValid); math.Abs(p-0.5) > 1e-12 {
			t.Errorf("%v: presence(c3) = %v, want 0.5", kind, p)
		}
		if p := sum.Presence(c4, NormalizedValid); math.Abs(p-0.5) > 1e-12 {
			t.Errorf("%v: presence(c4) = %v, want 0.5", kind, p)
		}
	}
}

func TestSegmentationUnionRule(t *testing.T) {
	fig := indoor.Figure1Space()
	c6 := fig.Space.CellOfSLoc(fig.SLocs[5])
	// Two segments each passing c6 with probability 1/2 must combine to
	// 1 - (1-1/2)(1-1/2) = 3/4. Use p4 alone: Cells = {c1, c6} -> 1/2.
	// Split by inserting p3 (incompatible with p4).
	seq := []iupt.SampleSet{
		{{Loc: fig.PLocs[3], Prob: 1.0}},
		{{Loc: fig.PLocs[2], Prob: 1.0}}, // break: p4 vs p3
	}
	// Segment 2 is (p3); c6 untouched there. Build a 3-segment variant
	// with p4 twice.
	seq = append(seq, iupt.SampleSet{{Loc: fig.PLocs[3], Prob: 1.0}})
	e := NewEngine(fig.Space, Options{})
	sum, _ := e.Summarize(seq)
	if sum.Segments != 3 {
		t.Fatalf("segments = %d, want 3", sum.Segments)
	}
	if p := sum.Presence(c6, NormalizedValid); math.Abs(p-0.75) > 1e-12 {
		t.Errorf("presence(c6) = %v, want 0.75", p)
	}
}

// TestPathBudgetFallback: a tiny budget forces the enumeration engine to
// fall back to the DP, with identical results.
func TestPathBudgetFallback(t *testing.T) {
	fig := indoor.Figure1Space()
	plocs := fig.PLocs[:]
	rng := rand.New(rand.NewSource(99))
	seq := randSequence(rng, plocs, 10, 4)
	budget := NewEngine(fig.Space, Options{Engine: EngineEnum, pathBudget: 2})
	unlimited := NewEngine(fig.Space, Options{Engine: EngineDP})

	sum, fellBack := budget.Summarize(seq)
	if !fellBack {
		t.Fatal("expected budget fallback")
	}
	want, _ := unlimited.Summarize(seq)
	if !summariesEqual(sum, want, 1e-12) {
		t.Error("fallback summary differs from DP")
	}
	if _, err := budget.summarizeEnum(seq); err != ErrPathBudget {
		t.Errorf("summarizeEnum error = %v, want ErrPathBudget", err)
	}
}

func TestPathCounting(t *testing.T) {
	f := newPaperFixture()
	e := rawEngine(f, NormalizedValid, EngineEnum)
	seqs := f.table.SequencesInRange(1, 8)
	// o3 raw: 2*2*1 Cartesian, all valid per paper Example 2 -> 4 paths.
	var raw []iupt.SampleSet
	for _, ts := range seqs[3] {
		raw = append(raw, ts.Samples)
	}
	sum, err := e.summarizeEnum(raw)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Paths != 4 {
		t.Errorf("o3 valid paths = %d, want 4", sum.Paths)
	}
}

// TestPresenceModeStrings covers the Stringers.
func TestStringers(t *testing.T) {
	if EngineDP.String() != "dp" || EngineEnum.String() != "enum" {
		t.Error("EngineKind.String broken")
	}
	if NormalizedValid.String() != "normalized" || UnnormalizedTotal.String() != "unnormalized" {
		t.Error("PresenceMode.String broken")
	}
	if AlgoNaive.String() != "naive" || AlgoNestedLoop.String() != "nested-loop" || AlgoBestFirst.String() != "best-first" {
		t.Error("Algorithm.String broken")
	}
}

func TestStatsPruningRatio(t *testing.T) {
	s := Stats{ObjectsTotal: 10, ObjectsComputed: 4}
	if got := s.PruningRatio(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("PruningRatio = %v", got)
	}
	empty := Stats{}
	if empty.PruningRatio() != 0 {
		t.Error("empty pruning ratio should be 0")
	}
	var agg Stats
	agg.add(&s)
	agg.add(&s)
	if agg.ObjectsTotal != 20 || agg.ObjectsComputed != 8 {
		t.Errorf("add = %+v", agg)
	}
}
