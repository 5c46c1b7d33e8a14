package core

import (
	"slices"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// Reduction is the output of the data reduction method (paper §3.2,
// Algorithm 1): the reduced positioning sequence and the object's possible
// semantic locations (PSLs).
type Reduction struct {
	// Seq is the reduced sequence of sample sets X'. Timestamps are
	// dropped: the flow definition is independent of dwell time (§3.2).
	Seq []iupt.SampleSet
	// PSLs are the S-locations the object may have passed, sorted by id:
	// those of the cells incident to any reported P-location. Best-First's
	// PSL MBRs are built from them (PSLRects).
	PSLs []indoor.SLocID
	// shared counts the samples of Seq that belong to slab runs the
	// reduction shares (slab.go): memoBytes does not charge them.
	shared int
}

// ReduceData implements Algorithm 1. It intra-merges samples of equivalent
// P-locations inside each sample set, inter-merges maximal runs of
// consecutive sample sets with identical P-location sets (averaging
// per-location probabilities), and collects the object's PSLs.
//
// If query is non-nil and the PSLs do not intersect the S-locations it maps
// to true (ids of the engine's space), ReduceData returns (nil, false): the
// object cannot contribute flow to any query location and is pruned (the
// ⟨null, null⟩ return of Algorithm 1 line 13).
//
// Option flags can disable the merges or the whole reduction; PSLs are
// always computed because the search algorithms need them.
func (e *Engine) ReduceData(seq iupt.Sequence, query map[indoor.SLocID]bool) (*Reduction, bool) {
	scr := e.getScratch()
	defer e.putScratch(scr)
	w := window{Window: iupt.Window{Seqs: []iupt.Sequence{seq}}}
	red := e.reduceAt(&w, 0, scr, nil)
	if query != nil && !e.opts.DisableReduction {
		var q []indoor.SLocID
		for s, in := range query {
			if in {
				q = append(q, s)
			}
		}
		if !reaches(red.Seq, e.reachMask(q)) {
			return nil, false
		}
	}
	return red, true
}

// reachMask marks, by P-location, whether one of its cells holds an
// S-location of q. It is the one form a query set takes for the PSL∩Q check
// (reaches); q's ids must be in range.
func (e *Engine) reachMask(q []indoor.SLocID) []bool {
	queried := make([]bool, e.space.NumCells())
	for _, s := range q {
		queried[e.space.CellOfSLoc(s)] = true
	}
	mask := make([]bool, e.space.NumPLocations())
	for p := range mask {
		mask[p] = slices.ContainsFunc(e.space.PLocCells(indoor.PLocID(p)), func(c indoor.CellID) bool { return queried[c] })
	}
	return mask
}

// reaches is Algorithm 1's PSL∩Q check (line 13) over a reduced sequence and
// a query's reachMask: the PSLs are the S-locations of the cells incident to
// the reduced sets' P-locations, so they meet the query set exactly when one
// of those P-locations is marked. An object it fails is pruned.
func reaches(seq []iupt.SampleSet, mask []bool) bool {
	for _, x := range seq {
		for _, s := range x {
			if mask[s.Loc] {
				return true
			}
		}
	}
	return false
}

// reduceAt reduces the object at position i of w. All intermediate state
// (seen-sets, the pending inter-merge run and its intra-merged sets, the
// reduced sequence as it grows) lives in scr, and the retained output — the
// Reduction, Seq and PSLs — is copied out once, at exact size: carved
// from out for a private evaluation, else from the heap, the merged sets from
// a per-call sampleArena.
//
// An object without pieces — head-only, whose sources interleave in T, or in
// a window with no sealed object — runs its sequence through the runBuilder
// record by record (the plain loop). Over slabs (slab.go) its pieces
// alternate: whole stored runs, whose sets the Reduction shares with the
// slab, and raw records — the runs the window cuts or joins across a seam,
// and head records — which run through the same builder. Either way the
// assembler (finishReduction) collects the PSLs over the reduced
// sets (DESIGN.md §6).
func (e *Engine) reduceAt(w *window, i int, scr *summarizeScratch, out *outArena) *Reduction {
	var arena sampleArena
	if out != nil {
		arena.out = &out.samples
	}
	seq := w.Seqs[i]
	for _, ts := range seq {
		arena.slabCap += len(ts.Samples)
	}
	b := e.newRunBuilder(scr, &arena)
	if w.pieces == nil || w.pieces[i] == nil {
		for _, ts := range seq {
			b.add(ts.Samples)
		}
	} else {
		for _, p := range w.pieces[i] {
			if p.s == nil {
				for _, ts := range seq[p.lo:p.hi] {
					b.add(ts.Samples)
				}
				continue
			}
			for r := p.lo; r < p.hi; r++ {
				b.whole(p.s.set(r), p.s.runLen(r))
			}
		}
	}
	return e.finishReduction(&b, out)
}

// runBuilder is Algorithm 1's merge step over one sequence of sample sets,
// fed in order (lines 2-5 with 14-30): each set is intra-merged, and a run
// of sets with one P-location set is inter-merged when the next set's
// differs. It is the one implementation of the merges: a slab build runs it
// over an object's records (slab.go), the plain loop over an object's raw
// sequence, an assembly over the runs a window cuts or joins, and a live
// monitor over the runs a tick cuts or extends (livestep.go), feeding sets
// it intra-merged before with intra off. The reduced sets collect in scr.seq
// and the number of sets each spans in scr.runLens.
type runBuilder struct {
	e            *Engine
	scr          *summarizeScratch
	arena        *sampleArena
	intra, inter bool
	shared       int // samples of the emitted whole runs, owned by their slab
}

func (e *Engine) newRunBuilder(scr *summarizeScratch, arena *sampleArena) runBuilder {
	scr.run = scr.run[:0]
	scr.runBuf = scr.runBuf[:0]
	scr.seq = scr.seq[:0]
	scr.runLens = scr.runLens[:0]
	return runBuilder{
		e:     e,
		scr:   scr,
		arena: arena,
		intra: !e.opts.DisableReduction && !e.opts.DisableIntraMerge,
		inter: !e.opts.DisableReduction && !e.opts.DisableInterMerge,
	}
}

// add feeds the next raw sample set. The pending run holds scratch-backed
// (intra) or caller-backed (no intra) sets; flush copies the merged result
// into the arena, so nothing emitted aliases scratch or the caller's records.
func (b *runBuilder) add(x iupt.SampleSet) {
	scr := b.scr
	if b.intra {
		x = b.e.intraMergeScratch(x, scr)
	}
	if !b.inter {
		// The set is final output: copy it out at exact size and recycle
		// the scratch buffer.
		out := b.arena.alloc(len(x))
		copy(out, x)
		scr.runBuf = scr.runBuf[:0]
		b.emit(out, 1)
		return
	}
	if len(scr.run) > 0 && !samePLocSet(scr.run[len(scr.run)-1], x) {
		b.flush()
		if b.intra {
			// The flushed run's scratch sets are dead; keep only x, the new
			// run's first set, compacted to the buffer's front so the buffer
			// never grows past one run plus one set.
			n := len(x)
			copy(scr.runBuf, x)
			scr.runBuf = scr.runBuf[:n]
			x = scr.runBuf[:n:n]
		}
	}
	scr.run = append(scr.run, x)
}

// whole emits a stored run of n sets as it is: a slab run the window holds
// whole, which no neighbour joins (the window build decodes every run a seam
// may join), so it is a maximal run of the window's sequence.
func (b *runBuilder) whole(set iupt.SampleSet, n int) {
	b.flush()
	b.scr.runBuf = b.scr.runBuf[:0]
	b.shared += len(set)
	b.emit(set, n)
}

// flush inter-merges the pending run, if any, into the arena.
func (b *runBuilder) flush() {
	scr := b.scr
	if len(scr.run) == 0 {
		return
	}
	b.emit(b.e.interMerge(scr.run, b.arena, scr), len(scr.run))
	scr.run = scr.run[:0]
}

func (b *runBuilder) emit(set iupt.SampleSet, n int) {
	b.scr.seq = append(b.scr.seq, set)
	b.scr.runLens = append(b.scr.runLens, int32(n))
}

// finishReduction is the assembler: it flushes b and copies the reduced
// sequence out, then marks the cells incident to every reported P-location
// and maps them through C2S to the PSLs (Algorithm 1 lines 6-7). Every set
// of a run covers the run's P-location set, so the cells over the reduced
// sets are the cells over every input set.
func (e *Engine) finishReduction(b *runBuilder, out *outArena) *Reduction {
	var (
		reds *[]Reduction
		sets *[]iupt.SampleSet
		psls *[]indoor.SLocID
	)
	if out != nil {
		reds, sets, psls = &out.reds, &out.sets, &out.psls
	}
	b.flush()
	scr := b.scr
	red := &iupt.Carve(reds, 1)[0]
	red.shared = b.shared
	if len(scr.seq) > 0 {
		red.Seq = iupt.Carve(sets, len(scr.seq))
		copy(red.Seq, scr.seq)
	}
	clear(scr.seq) // the sets are the reduction's: an idle pool must not pin them

	// Each cell is mapped once, however many samples name it; an S-location
	// lies in exactly one cell, so no PSL is collected twice.
	scr.cellSeen.Reset(e.space.NumCells())
	scr.psls = scr.psls[:0]
	for _, x := range red.Seq {
		for _, s := range x {
			for _, c := range e.space.PLocCells(s.Loc) {
				if !scr.cellSeen.Has(int32(c)) {
					scr.cellSeen.Set(int32(c), 0)
					scr.psls = append(scr.psls, e.space.SLocsOfCell(c)...)
				}
			}
		}
	}
	slices.Sort(scr.psls)
	red.PSLs = iupt.Carve(psls, len(scr.psls))
	copy(red.PSLs, scr.psls)
	return red
}

// intraMergeScratch intra-merges into scr.runBuf, returning a scratch-backed
// set that is only valid until the pending run is flushed.
func (e *Engine) intraMergeScratch(x iupt.SampleSet, scr *summarizeScratch) iupt.SampleSet {
	base := len(scr.runBuf)
	scr.runBuf = e.intraMergeInto(x, scr.runBuf, scr)
	return scr.runBuf[base:]
}

// intraMergeInto appends the intra-merge of x to out and returns the
// extended slice. scr provides the P-location → output-position index.
func (e *Engine) intraMergeInto(x iupt.SampleSet, out iupt.SampleSet, scr *summarizeScratch) iupt.SampleSet {
	base := len(out)
	scr.plocPos.Reset(e.space.NumPLocations())
	for _, s := range x {
		rep := e.space.ClassRep(s.Loc)
		if i, ok := scr.plocPos.Get(int32(rep)); ok {
			out[base+int(i)].Prob += s.Prob
			continue
		}
		scr.plocPos.Set(int32(rep), int32(len(out)-base))
		out = append(out, iupt.Sample{Loc: rep, Prob: s.Prob})
	}
	return out
}

// samePLocSet reports whether two sample sets cover the identical set of
// P-locations (order-insensitive). Sample sets are duplicate-free, so equal
// length plus one-sided containment suffices.
func samePLocSet(a, b iupt.SampleSet) bool {
	if len(a) != len(b) {
		return false
	}
	// Quadratic scan: mss keeps sample sets small (≤ 8 in every dataset),
	// where this beats building any index.
	for _, sa := range a {
		found := false
		for _, sb := range b {
			if sa.Loc == sb.Loc {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// interMerge merges a run of consecutive sample sets with identical
// P-location sets into one arena-allocated set whose per-location
// probability is the mean across the run (Algorithm 1 lines 22-30). One pass
// over the run suffices: the first set's P-locations index the output via
// the scratch position marks, and every later sample accumulates into its
// slot. Per-location accumulation order is run order, exactly as the nested
// rescan produced.
func (e *Engine) interMerge(run []iupt.SampleSet, arena *sampleArena, scr *summarizeScratch) iupt.SampleSet {
	first := run[0]
	out := arena.alloc(len(first))
	if len(run) == 1 {
		copy(out, first)
		return out
	}
	scr.plocPos.Reset(e.space.NumPLocations())
	for i, s := range first {
		out[i] = iupt.Sample{Loc: s.Loc}
		scr.plocPos.Set(int32(s.Loc), int32(i))
	}
	for _, x := range run {
		for _, xs := range x {
			if i, ok := scr.plocPos.Get(int32(xs.Loc)); ok {
				out[i].Prob += xs.Prob
			}
		}
	}
	inv := 1.0 / float64(len(run))
	for i := range out {
		out[i].Prob *= inv
	}
	return out
}

// PSLRects returns the global-plane MBRs covering the reduction's PSLs,
// one rectangle per floor touched. Best-First inserts these (the paper's
// "series of smaller, finer-grained MBRs", §4.2) into its aggregate R-tree.
func (e *Engine) PSLRects(red *Reduction) []rectWithFloor {
	byFloor := make(map[int]int) // floor -> index into out
	var out []rectWithFloor
	for _, s := range red.PSLs {
		parts := e.space.SLocation(s).Partitions
		if len(parts) == 0 {
			continue
		}
		floor := e.space.Partition(parts[0]).Floor
		i, ok := byFloor[floor]
		if !ok {
			i = len(out)
			byFloor[floor] = i
			out = append(out, rectWithFloor{floor: floor, rect: e.space.SLocBounds(s)})
			continue
		}
		out[i].rect = out[i].rect.Union(e.space.SLocBounds(s))
	}
	return out
}
