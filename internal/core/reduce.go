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
	// PSLs are the S-locations the object may have passed, sorted by id.
	PSLs []indoor.SLocID
	// Cells are the cells incident to any reported P-location, sorted.
	// They determine the PSLs and the PSL MBRs used by Best-First.
	Cells []indoor.CellID
}

// HasAnyOf reports whether the object's PSLs intersect the query set.
func (r *Reduction) HasAnyOf(query map[indoor.SLocID]bool) bool {
	for _, s := range r.PSLs {
		if query[s] {
			return true
		}
	}
	return false
}

// ReduceData implements Algorithm 1. It intra-merges samples of equivalent
// P-locations inside each sample set, inter-merges maximal runs of
// consecutive sample sets with identical P-location sets (averaging
// per-location probabilities), and collects the object's PSLs.
//
// If query is non-nil and the PSLs do not intersect it, ReduceData returns
// (nil, false): the object cannot contribute flow to any query location and
// is pruned (the ⟨null, null⟩ return of Algorithm 1 line 13).
//
// Option flags can disable the merges or the whole reduction; PSLs are
// always computed because the search algorithms need them.
func (e *Engine) ReduceData(seq iupt.Sequence, query map[indoor.SLocID]bool) (*Reduction, bool) {
	scr := e.getScratch()
	defer e.putScratch(scr)
	return e.reduceDataScratch(seq, query, scr, nil)
}

// reduceDataScratch is ReduceData with an explicit scratch arena: all
// intermediate state (seen-sets, the pending inter-merge run and its
// intra-merged sets, the reduced sequence as it grows) lives in scr, and the
// retained output — the Reduction, Seq, Cells and PSLs — is copied out once,
// at exact size: carved from out for a private evaluation, else from the
// heap, the output sets from a per-call sampleArena.
func (e *Engine) reduceDataScratch(seq iupt.Sequence, query map[indoor.SLocID]bool, scr *summarizeScratch, out *outArena) (*Reduction, bool) {
	var (
		arena sampleArena
		reds  *[]Reduction
		sets  *[]iupt.SampleSet
		cells *[]indoor.CellID
		psls  *[]indoor.SLocID
	)
	if out != nil {
		arena.out, reds, sets, cells, psls = &out.samples, &out.reds, &out.sets, &out.cells, &out.psls
	}
	red := &iupt.Carve(reds, 1)[0]
	scr.cellSeen.Reset(e.space.NumCells())
	scr.cells = scr.cells[:0]
	scr.run = scr.run[:0]
	scr.runBuf = scr.runBuf[:0]
	scr.seq = scr.seq[:0]
	for _, ts := range seq {
		arena.slabCap += len(ts.Samples)
	}

	intra := !e.opts.DisableReduction && !e.opts.DisableIntraMerge
	inter := !e.opts.DisableReduction && !e.opts.DisableInterMerge

	// Xmerge, the pending inter-merge run, holds scratch-backed (intra) or
	// table-backed (no intra) sets; flushRun copies the merged result into
	// the output arena, so nothing retained aliases scratch or the table.
	flushRun := func() {
		if len(scr.run) == 0 {
			return
		}
		scr.seq = append(scr.seq, e.interMerge(scr.run, &arena, scr))
		scr.run = scr.run[:0]
	}

	for _, ts := range seq {
		x := ts.Samples
		if intra {
			x = e.intraMergeScratch(x, scr)
			if !inter {
				// The merged set is final output: copy it out of scratch at
				// exact size and recycle the scratch buffer.
				out := arena.alloc(len(x))
				copy(out, x)
				x = out
				scr.runBuf = scr.runBuf[:0]
			}
		} else if !inter {
			out := arena.alloc(len(x))
			copy(out, x)
			x = out
		}
		// PSL accumulation (Algorithm 1 lines 6-7): every cell incident to
		// a reported P-location, mapped through C2S.
		for _, s := range x {
			for _, c := range e.space.PLocCells(s.Loc) {
				if !scr.cellSeen.Has(int32(c)) {
					scr.cellSeen.Set(int32(c), 0)
					scr.cells = append(scr.cells, c)
				}
			}
		}
		if !inter {
			scr.seq = append(scr.seq, x)
			continue
		}
		if len(scr.run) > 0 && !samePLocSet(scr.run[len(scr.run)-1], x) {
			flushRun()
			if intra {
				// The flushed run's scratch sets are dead; keep only x, the
				// new run's first set, compacted to the buffer's front so
				// the buffer never grows past one run plus one set.
				n := len(x)
				copy(scr.runBuf, x)
				scr.runBuf = scr.runBuf[:n]
				x = scr.runBuf[:n:n]
			}
		}
		scr.run = append(scr.run, x)
	}
	flushRun()
	if len(scr.seq) > 0 {
		red.Seq = iupt.Carve(sets, len(scr.seq))
		copy(red.Seq, scr.seq)
	}
	clear(scr.seq) // the sets are the reduction's: an idle pool must not pin them

	slices.Sort(scr.cells)
	red.Cells = iupt.Carve(cells, len(scr.cells))
	copy(red.Cells, scr.cells)
	scr.slocSeen.Reset(e.space.NumSLocations())
	scr.psls = scr.psls[:0]
	for _, c := range red.Cells {
		for _, s := range e.space.SLocsOfCell(c) {
			if !scr.slocSeen.Has(int32(s)) {
				scr.slocSeen.Set(int32(s), 0)
				scr.psls = append(scr.psls, s)
			}
		}
	}
	slices.Sort(scr.psls)
	red.PSLs = iupt.Carve(psls, len(scr.psls))
	copy(red.PSLs, scr.psls)

	if query != nil && !e.opts.DisableReduction && !red.HasAnyOf(query) {
		return nil, false
	}
	return red, true
}

// intraMerge folds samples whose P-locations are equivalent (identical
// Cells(p), §3.1.2) into one sample at the class representative — the
// smallest member id — with the summed probability (Algorithm 1 lines
// 14-21). The output preserves first-appearance order of representatives.
// It is retained for the tests; the reduction pipeline uses the scratch- and
// arena-backed variants below.
func (e *Engine) intraMerge(x iupt.SampleSet) iupt.SampleSet {
	scr := e.getScratch()
	defer e.putScratch(scr)
	return e.intraMergeInto(x, make(iupt.SampleSet, 0, len(x)), scr)
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
