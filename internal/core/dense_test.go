package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// This file pins the dense single-pass DP (dp.go) against the enumeration
// engine on the inputs the classic per-cell implementation was never
// stressed on — rescale-threshold-crossing long sequences, single-sample-set
// edges — and locks the zero-allocation property of the scratch-pooled hot
// path with explicit allocation budgets.

// raceEnabled is set by race_enabled_test.go under -race, where sync.Pool
// is deliberately lossy and the instrumentation itself allocates — the
// budget tests skip there (the default `make test` still enforces them).
var raceEnabled bool

// chainSequence builds a length-n sequence whose sets hold {p7, p3} with
// random probabilities. p7 (presence, cell c1) and p3 (partitioning between
// c3/c4) are topologically incompatible, so exactly two valid paths exist —
// all-p7 and all-p3 — regardless of n. The valid mass is the product of the
// per-step probabilities of each chain: it decays exponentially, crossing
// rescaleThreshold around n ≈ 100 while staying a normal float64, so the
// enumeration engine remains an exact reference deep into the dense DP's
// rescaling regime.
func chainSequence(rng *rand.Rand, fig *indoor.Figure1, n int) []iupt.SampleSet {
	seq := make([]iupt.SampleSet, n)
	for i := range seq {
		p := 0.2 + 0.6*rng.Float64()
		seq[i] = iupt.SampleSet{
			{Loc: fig.PLocs[6], Prob: p},
			{Loc: fig.PLocs[2], Prob: 1 - p},
		}
	}
	return seq
}

// TestDenseDPRescaleMatchesEnum drives the dense DP across the rescale
// threshold (sequence length 160 decays the valid mass to ~1e-50) and
// checks normalized and unnormalized presence against the enumeration
// engine at 1e-9 for every cell.
func TestDenseDPRescaleMatchesEnum(t *testing.T) {
	fig := indoor.Figure1Space()
	space := fig.Space
	enum := NewEngine(space, Options{Engine: EngineEnum, StrictPaths: true})
	dp := NewEngine(space, Options{Engine: EngineDP, StrictPaths: true})

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := chainSequence(rng, fig, 160)
		se, err := enum.summarizeEnum(seq)
		if err != nil {
			return false
		}
		sd := dp.summarizeDP(seq)
		if sd.LogScale == 0 {
			t.Fatal("length-160 chain did not cross the rescale threshold")
		}
		// Both engines rescale internally, not necessarily at the same
		// steps; presence in both modes and the recombined (log-space)
		// total mass must agree.
		for c := 0; c < space.NumCells(); c++ {
			cell := indoor.CellID(c)
			for _, mode := range []PresenceMode{NormalizedValid, UnnormalizedTotal} {
				if math.Abs(se.Presence(cell, mode)-sd.Presence(cell, mode)) > 1e-9 {
					return false
				}
			}
		}
		logDP := math.Log(sd.ValidMass) + sd.LogScale
		logEnum := math.Log(se.ValidMass) + se.LogScale
		return math.Abs(logDP-logEnum) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDenseDPRescaleSchedulePreservesRatios: on a rescaled sequence the
// per-cell pass mass never exceeds the valid mass (the f row and the G rows
// are rescaled at identical steps by identical factors, so the subtraction
// ValidMass - G(c) stays well-conditioned).
func TestDenseDPRescaleSchedulePreservesRatios(t *testing.T) {
	fig := indoor.Figure1Space()
	dp := NewEngine(fig.Space, Options{StrictPaths: true})
	rng := rand.New(rand.NewSource(7))
	seq := chainSequence(rng, fig, 300)
	sum := dp.summarizeDP(seq)
	if sum.LogScale == 0 {
		t.Fatal("length-300 chain did not cross the rescale threshold")
	}
	if sum.ValidMass <= 0 {
		t.Fatalf("ValidMass = %v, want > 0", sum.ValidMass)
	}
	for _, cm := range sum.PassMass {
		if cm.Mass < 0 || cm.Mass > sum.ValidMass*(1+1e-9) {
			t.Errorf("PassMass[%d] = %v outside [0, ValidMass=%v]", cm.Cell, cm.Mass, sum.ValidMass)
		}
	}
}

// TestDenseDPRandomShortMatchesEnum re-pins the engines on short random
// sequences (the pre-dense property test, kept alongside the long-sequence
// ones so a dense-DP regression cannot hide behind segmentation).
func TestDenseDPRandomShortMatchesEnum(t *testing.T) {
	fig := indoor.Figure1Space()
	plocs := fig.PLocs[:]
	enum := NewEngine(fig.Space, Options{Engine: EngineEnum})
	dp := NewEngine(fig.Space, Options{Engine: EngineDP})

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randSequence(rng, plocs, 7, 4)
		se, fellBack := enum.Summarize(seq)
		if fellBack {
			return false
		}
		sd, _ := dp.Summarize(seq)
		return summariesEqual(se, sd, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDenseDPSingleSampleSet covers the n=1 edge cases: one and many
// samples, against the enumeration engine and the closed form
// Σ_s prob_s / |Cells(s)| per incident cell.
func TestDenseDPSingleSampleSet(t *testing.T) {
	fig := indoor.Figure1Space()
	space := fig.Space
	plocs := fig.PLocs[:]
	enum := NewEngine(space, Options{Engine: EngineEnum})
	dp := NewEngine(space, Options{Engine: EngineDP})

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := []iupt.SampleSet{randSampleSet(rng, plocs, len(plocs))}
		se, err := enum.summarizeEnum(seq)
		if err != nil {
			return false
		}
		sd := dp.summarizeDP(seq)
		if !summariesEqual(se, sd, 1e-9) {
			return false
		}
		want := make(map[indoor.CellID]float64)
		for _, s := range seq[0] {
			cells := space.PLocCells(s.Loc)
			for _, c := range cells {
				want[c] += s.Prob / float64(len(cells))
			}
		}
		for c, w := range want {
			if math.Abs(sd.mass(c)-w) > 1e-12 {
				return false
			}
		}
		return math.Abs(sd.ValidMass-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}

	// Degenerate inputs must stay well-formed.
	empty := dp.summarizeDP(nil)
	if empty.ValidMass != 0 || len(empty.PassMass) != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

// steadySequence builds a break-free 60-step sequence over p4/p5 (both
// partitioning P-locations of door d4/d5 territory, mutually compatible), so
// Summarize runs exactly one dense DP pass — the steady-state serving shape.
func steadySequence(fig *indoor.Figure1) []iupt.SampleSet {
	seq := make([]iupt.SampleSet, 60)
	for i := range seq {
		seq[i] = iupt.SampleSet{
			{Loc: fig.PLocs[3], Prob: 0.6},
			{Loc: fig.PLocs[4], Prob: 0.4},
		}
	}
	return seq
}

// TestSummarizeAllocBudget locks the steady-state allocation count of the
// Eq.-1 walk: with a warm scratch pool, one Summarize call allocates the
// returned ObjectSummary and its PassMass at exact size (the masses collect in
// scratch and are copied out once, cell-sorted) — a constant, not a function
// of sequence length, of the number of cells passed or of the number of
// segments (the classic implementation allocated ~2 slices per step per
// tracked cell, and a growing PassMass map a bucket per few cells; until the
// walk, every segment allocated its own summary, and the segment list one
// more).
func TestSummarizeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	fig := indoor.Figure1Space()
	e := NewEngine(fig.Space, Options{})
	steady := steadySequence(fig)
	// Two impossible steps: p4/p5 cannot be followed by p3, nor p3 by p4/p5.
	impossible := slices.Concat(steady[:20], slices.Repeat([]iupt.SampleSet{{{Loc: fig.PLocs[2], Prob: 1}}}, 20), steady[:20])
	for _, tc := range []struct {
		name     string
		seq      []iupt.SampleSet
		segments int
	}{{"one segment", steady, 1}, {"three segments", impossible, 3}} {
		sum, _ := e.Summarize(tc.seq) // warm the scratch pool
		if sum.Segments != tc.segments {
			t.Fatalf("%s: split into %d segments, want %d", tc.name, sum.Segments, tc.segments)
		}
		allocs := testing.AllocsPerRun(100, func() {
			e.Summarize(tc.seq)
		})
		t.Logf("%s: Summarize allocates %v/op", tc.name, allocs)
		if allocs > 2 {
			t.Errorf("%s: steady-state Summarize allocates %v/op, budget 2", tc.name, allocs)
		}
	}
}

// TestReduceDataAllocBudget locks the reduce path: scratch seen-sets, the
// scratch-grown reduced sequence and the slab arena keep the per-call count at
// a small constant — the output Reduction, Seq and PSLs, each copied
// out once at exact size, plus one sample slab — independent of merge
// activity and of the number of reduced sets.
func TestReduceDataAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	fig := indoor.Figure1Space()
	e := NewEngine(fig.Space, Options{})
	seq := make(iupt.Sequence, 0, 80)
	for i := 0; i < 80; i++ {
		seq = append(seq, iupt.TimedSampleSet{
			T: iupt.Time(i),
			Samples: iupt.SampleSet{
				{Loc: fig.PLocs[3], Prob: 0.6},
				{Loc: fig.PLocs[i%2], Prob: 0.4}, // alternate to defeat inter-merge every other step
			},
		})
	}
	e.ReduceData(seq, nil) // warm the scratch pool
	allocs := testing.AllocsPerRun(100, func() {
		e.ReduceData(seq, nil)
	})
	t.Logf("ReduceData allocates %v/op", allocs)
	if allocs > 10 {
		t.Errorf("steady-state ReduceData allocates %v/op, budget 10", allocs)
	}
}

// TestScratchReuseAcrossEngines: scratch pools are per engine and scratch
// state never leaks between objects — two interleaved engines with different
// spaces, each over its own inputs, produce the same results as fresh
// engines (regression guard for epoch-stamp reuse).
func TestScratchReuseAcrossObjects(t *testing.T) {
	fig := indoor.Figure1Space()
	plocs := fig.PLocs[:]
	e := NewEngine(fig.Space, Options{})
	fresh := func(seq []iupt.SampleSet) *ObjectSummary {
		return NewEngine(fig.Space, Options{}).summarizeDP(seq)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		seq := randSequence(rng, plocs, 10, 4)
		got := e.summarizeDP(seq) // reuses e's pooled scratch every iteration
		want := fresh(seq)
		if !summariesEqual(got, want, 0) {
			t.Fatalf("iteration %d: pooled scratch changed the summary", i)
		}
	}
}
