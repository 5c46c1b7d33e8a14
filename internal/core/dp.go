package core

import (
	"math"
	"slices"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// summarizeWalk computes the object summary without materializing paths.
//
// Both quantities of Equation 1 factorize over a path's transitions:
//
//	ValidMass   = Σ_φ Π_j prob_j
//	G(c)        = Σ_φ Π_j prob_j · Π_j (1 - pr_j⊨c)
//	PassMass[c] = ValidMass - G(c)
//
// so a forward pass with state = index of the tail sample computes both in
// O(n·m²) per tracked cell, m = max sample-set size. The tracked cells are
// exactly those appearing in some valid pair's M_IL entry — the only cells
// with non-zero pass probability. Results match the enumeration engine
// exactly up to floating-point summation order (tests assert 1e-9).
//
// The pass is one walk over the sequence, each step visited once: lookup
// takes every sample pair's M_IL entry into a buffer sized to the step, the
// step's reachable pairs decide whether the sequence is cut there (when cut
// is set; see Summarize), and a step that does not cut is swept at once. The
// state is a (C+1)×m column-major matrix: row 0 is the undamped f pass for
// ValidMass, row t the G pass damped at tracked cell t, each born as a copy of
// row 0 at the step that first meets its cell (bear). A finished segment's
// masses merge into the scratch union, so steady-state summarization
// allocates only the returned ObjectSummary and its exact-size PassMass.
// With enum set the walk only cuts, and the enumeration engine evaluates each
// segment (finish).
//
// Long sequences with pruned transitions decay the path mass exponentially;
// whenever the running f mass drops below rescaleThreshold the pass rescales
// the whole matrix (f and every G row at the same step by the same factor,
// preserving ratios) and accumulates the factor in LogScale.
func (e *Engine) summarizeWalk(seq []iupt.SampleSet, scr *summarizeScratch, cut, enum bool) (sum *ObjectSummary, fellBack bool) {
	if len(seq) == 0 {
		return &ObjectSummary{Segments: 1}, false
	}
	scr.union = scr.union[:0]
	var paths int64
	segs, start := 1, 0
	e.begin(seq[0], scr)
	// Without cuts, enumeration needs no step, and a dead DP segment is the
	// whole answer: no valid path.
	for i := 1; i < len(seq) && (cut || !enum && !scr.dead); i++ {
		if !e.lookup(seq[i-1], seq[i], nil, scr, cut) {
			if !enum && !scr.dead {
				e.sweep(len(seq[i-1]), seq[i], scr)
			}
			continue
		}
		seg, fb := e.finish(seq[start:i], scr, enum)
		fellBack, paths = fellBack || fb, paths+seg.Paths
		scr.unionAdd(&seg, e.opts.Presence)
		segs, start = segs+1, i
		e.begin(seq[i], scr)
	}
	seg, fb := e.finish(seq[start:], scr, enum)
	fellBack, paths = fellBack || fb, paths+seg.Paths
	if segs == 1 {
		return &ObjectSummary{ValidMass: seg.ValidMass, PassMass: exactMasses(seg.PassMass), LogScale: seg.LogScale, Paths: paths, Segments: 1}, fellBack
	}
	scr.unionAdd(&seg, e.opts.Presence)
	return &ObjectSummary{ValidMass: 1, PassMass: exactMasses(scr.unionMasses()), Paths: paths, Segments: segs}, fellBack
}

// summarizeDP is the DP walk over the whole sequence with cuts off — the
// paper's semantics, and what Options.StrictPaths selects.
func (e *Engine) summarizeDP(seq []iupt.SampleSet) *ObjectSummary {
	scr := e.getScratch()
	defer e.putScratch(scr)
	sum, _ := e.summarizeWalk(seq, scr, false, false)
	return sum
}

// stepPair is one valid sample pair of a step: column indices a (previous
// set) and b (current set), the current sample's probability p, the cells of
// M_IL[a, b] with the per-cell pass probability pr = 1/|M_IL[a,b]|, and the
// dense matrix rows of those cells (set by sweep).
type stepPair struct {
	a, b  int32
	rows  [2]int32
	p, pr float64
	cells []indoor.CellID
}

// lookup takes step prev → cur's valid pairs into scr.pairs, one M_IL lookup
// per sample pair, and, when cut is set, reports whether the step cuts the
// sequence. A sample is reachable when some reachable sample of the previous
// set connects to it; a step with no reachable sample cuts, even when it has
// valid pairs hanging off unreachable samples (enumeration over the whole
// stretch would produce an empty path set), and every sample after a cut is
// reachable. Within a segment the engines are thus guaranteed a non-empty
// valid path set. A step without a valid pair (a hard cut) cuts whatever was
// reachable. A caller that kept the step's pairs from an earlier walk (a
// live monitor, livestep.go) passes them as kept, and scr.pairs is kept
// itself: no M_IL lookup is taken.
func (e *Engine) lookup(prev, cur iupt.SampleSet, kept []stepPair, scr *summarizeScratch, cut bool) bool {
	if kept != nil {
		scr.pairs = kept
	} else {
		// Every pair is written and only a valid one kept, without a branch
		// on validity (which is data, and mispredicts).
		pairs := slices.Grow(scr.pairs[:0], len(prev)*len(cur))[:len(prev)*len(cur)]
		k := 0
		for ai, as := range prev {
			for bi, bs := range cur {
				cells := e.space.MIL(as.Loc, bs.Loc)
				pairs[k] = stepPair{a: int32(ai), b: int32(bi), p: bs.Prob, pr: 1.0 / float64(len(cells)), cells: cells}
				if len(cells) > 0 {
					k++
				}
			}
		}
		scr.pairs = pairs[:k]
	}
	if !cut {
		return false
	}
	next := slices.Grow(scr.nextReach[:0], len(cur))[:len(cur)]
	clear(next)
	reached := false
	for _, t := range scr.pairs {
		if scr.reach[t.a] {
			next[t.b], reached = true, true
		}
	}
	if reached {
		scr.reach, scr.nextReach = next, scr.reach
	}
	return !reached // a cut leaves reach to begin
}

// begin starts a segment at set: one row, f = the sample probabilities, every
// sample reachable.
func (e *Engine) begin(set iupt.SampleSet, scr *summarizeScratch) {
	scr.rows, scr.logScale, scr.dead = 1, 0, false
	scr.tracked = scr.tracked[:0]
	scr.cellRow.Reset(e.space.NumCells())
	scr.fit(0, len(set))
	scr.reach = slices.Grow(scr.reach[:0], len(set))[:len(set)]
	for j, s := range set {
		scr.cur[j], scr.reach[j] = s.Prob, true
	}
}

// sweep advances the segment's matrix by one step into set, whose valid pairs
// lookup left in scr.pairs; m is the previous set's size. The state dies when
// the f mass is fully pruned.
func (e *Engine) sweep(m int, set iupt.SampleSet, scr *summarizeScratch) {
	for k := range scr.pairs {
		t := &scr.pairs[k]
		for ci, c := range t.cells {
			row, ok := scr.cellRow.Get(int32(c))
			if !ok {
				scr.tracked = append(scr.tracked, c)
				row = int32(len(scr.tracked)) // rows are 1-based
				scr.cellRow.Set(int32(c), row)
			}
			t.rows[ci] = row
		}
	}
	if rows := len(scr.tracked) + 1; rows > scr.rows {
		scr.bear(m, rows)
	}
	rows := scr.rows
	scr.fit(m*rows, len(set)*rows)
	cur, nx := scr.cur[:m*rows], scr.next[:len(set)*rows]
	clear(nx)
	for k := range scr.pairs {
		t := &scr.pairs[k]
		src := cur[int(t.a)*rows : (int(t.a)+1)*rows]
		dst := nx[int(t.b)*rows : (int(t.b)+1)*rows]
		p := t.p
		for r, v := range src {
			dst[r] += v * p
		}
		// Damped rows contribute src·(1-pr)·p; correct them by subtracting
		// the src·pr·p over-credit of the sweep above.
		ppr := p * t.pr
		for _, r := range t.rows[:len(t.cells)] {
			dst[r] -= src[r] * ppr
		}
	}
	// Rescale decision replays the classic f pass exactly: sum row 0 in
	// ascending sample order, rescale everything when it decays.
	total := 0.0
	for j := range set {
		total += nx[j*rows]
	}
	if total <= 0 {
		scr.dead = true // mass fully pruned: no valid path
		return
	}
	if total < rescaleThreshold {
		inv := 1 / total
		for idx := range nx {
			nx[idx] *= inv
		}
		scr.logScale += math.Log(total)
	}
	scr.cur, scr.next = scr.next, scr.cur
}

// bear widens the matrix's m columns to rows rows, each new row a copy of row
// 0. An undamped row receives row 0's operands in row 0's order — the same
// initial probability, the same multiply-adds, the same rescale — so a row
// born at the step that first meets its cell holds exactly the bits it would
// have held had it existed since the segment began. Columns move back to
// front, so the in-place widening never overwrites a value not yet moved.
func (scr *summarizeScratch) bear(m, rows int) {
	old := scr.rows
	scr.fit(m*old, m*rows)
	cur := scr.cur[:m*rows]
	for j := m - 1; j >= 0; j-- {
		col := cur[j*rows : (j+1)*rows]
		copy(col, cur[j*old:(j+1)*old])
		for r := old; r < rows; r++ {
			col[r] = col[0]
		}
	}
	scr.rows = rows
}

// finish evaluates the segment seg the walk has swept: its valid mass, scale
// and cell-sorted pass masses (in scr.masses, which the result aliases). The
// enumeration engine materializes the segment's paths instead, and falls back
// to the DP walk over the path budget.
func (e *Engine) finish(seg []iupt.SampleSet, scr *summarizeScratch, enum bool) (sum ObjectSummary, fellBack bool) {
	if enum {
		s, err := e.summarizeEnum(seg)
		if err != nil { // ErrPathBudget is the only error summarizeEnum produces.
			s, fellBack = e.summarizeDP(seg), true
		}
		return *s, fellBack
	}
	scr.masses = scr.masses[:0]
	switch {
	case scr.dead:
		return sum, false
	case len(seg) == 1:
		// Each cell's mass accumulates in sample order, from 0, into the
		// entry interned on the cell's first sight.
		scr.cellRow.Reset(e.space.NumCells())
		for _, s := range seg[0] {
			sum.ValidMass += s.Prob
			cells := e.space.PLocCells(s.Loc)
			pr := 1.0 / float64(len(cells))
			for _, c := range cells {
				i, ok := scr.cellRow.Get(int32(c))
				if !ok {
					i = int32(len(scr.masses))
					scr.cellRow.Set(int32(c), i)
					scr.masses = append(scr.masses, CellMass{Cell: c})
				}
				scr.masses[i].Mass += s.Prob * pr
			}
		}
	default:
		rows, m := scr.rows, len(seg[len(seg)-1])
		for j := 0; j < m; j++ {
			sum.ValidMass += scr.cur[j*rows]
		}
		sum.LogScale = scr.logScale
		if sum.ValidMass == 0 {
			return sum, false
		}
		for t, c := range scr.tracked {
			gc := 0.0
			for j := 0; j < m; j++ {
				gc += scr.cur[j*rows+t+1]
			}
			if mass := sum.ValidMass - gc; mass > sum.ValidMass*1e-15 {
				scr.masses = append(scr.masses, CellMass{Cell: c, Mass: mass})
			}
		}
	}
	slices.SortFunc(scr.masses, byCell)
	sum.PassMass = scr.masses
	return sum, false
}
