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
// The pass is one walk over the sequence, each step visited once (walk.run):
// lookup takes every sample pair's M_IL entry into a buffer sized to the
// step, the step's reachable pairs decide whether the sequence is cut there
// (when cut is set; see Summarize), and a step that does not cut is swept at
// once. The state is a (C+1)×m column-major matrix: row 0 is the undamped f
// pass for ValidMass, row t the G pass damped at tracked cell t, each born as
// a copy of row 0 at the step that first meets its cell (bear). A finished
// segment's masses go to the walk's buffer in the scratch, and the union
// merges them, so steady-state summarization allocates only the returned
// ObjectSummary and its PassMass. With enum set the walk only cuts, and the
// enumeration engine evaluates each segment (finishSeg).
//
// Long sequences with pruned transitions decay the path mass exponentially;
// whenever the running f mass drops below rescaleThreshold the pass rescales
// the whole matrix (f and every G row at the same step by the same factor,
// preserving ratios) and accumulates the factor in LogScale.
func (e *Engine) summarizeWalk(seq []iupt.SampleSet, scr *summarizeScratch, cut, enum bool) (*ObjectSummary, bool) {
	if len(seq) == 0 {
		return &ObjectSummary{Segments: 1}, false
	}
	w := walk{e: e, scr: scr, seq: seq, cut: cut, enum: enum, segs: scr.segs[:0], masses: scr.masses[:0]}
	w.begin(0)
	w.run(1, nil)
	w.finishSeg(len(seq))
	sum := new(ObjectSummary)
	fellBack := w.summarize(sum, nil)
	scr.segs, scr.masses = w.segs[:0], w.masses[:0]
	return sum, fellBack
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

// walk is one Equation 1 walk over a reduced sequence: its finished
// segments in order, their pass masses back to back in one buffer, and the
// open segment's first set, the state of which is in scr. cut and enum are
// Summarize's. A walk that is kept between calls (a live monitor's,
// livestep.go) also keeps each step's valid pairs (kept) and its state one
// set back from the end (ck); a nil store keeps none.
type walk struct {
	e         *Engine
	scr       *summarizeScratch
	seq       []iupt.SampleSet
	cut, enum bool
	open      int
	segs      []walkSeg
	masses    []CellMass
	kept      *pairStore
	ck        *walkCheckpoint
	fresh     bool // ck was taken by this walk
}

// walkSeg is one finished segment of a walk: the index of its first set,
// its valid mass, scale and number of enumerated paths, whether its
// enumeration fell back to the DP walk, and its pass masses, masses[lo:hi]
// of the walk's buffer.
type walkSeg struct {
	start               int
	validMass, logScale float64
	paths               int64
	fellBack            bool
	lo, hi              int
}

// walkCheckpoint is a walk's state after set at, inside the segment that
// starts at open: the matrix, its rows and tracked cells, the reachability
// marks, the rescale log and whether the mass died. at < 0 holds none.
type walkCheckpoint struct {
	at, open int
	rows     int
	logScale float64
	dead     bool
	cur      []float64
	tracked  []indoor.CellID
	reach    []bool
}

// pairStore keeps the valid pairs of a walk's steps, by the index of the set
// the step leads into, carved from an arena: a function of the two sets, so
// a walk that passes the step again takes no M_IL lookup. An empty entry
// holds none (get returns nil), so its step is looked up again.
type pairStore struct {
	steps [][]stepPair
	arena []stepPair
}

// pairArenaSize is the length of a pair store's arena chunk.
const pairArenaSize = 256

// get returns step i's kept pairs; nil when the store holds none, or is nil.
func (p *pairStore) get(i int) []stepPair {
	if p == nil || i >= len(p.steps) || len(p.steps[i]) == 0 {
		return nil
	}
	return p.steps[i]
}

// put keeps a copy of step i's valid pairs, in the step's old array when
// they fit: a rebuilt set keeps its P-location set, and so the step its
// number of valid pairs.
func (p *pairStore) put(i int, pairs []stepPair) {
	for len(p.steps) <= i {
		p.steps = append(p.steps, nil)
	}
	st := p.steps[i][:0]
	if len(pairs) > cap(st) {
		if len(p.arena)+len(pairs) > cap(p.arena) {
			p.arena = make([]stepPair, 0, max(pairArenaSize, len(pairs)))
		}
		n := len(p.arena)
		p.arena = p.arena[:n+len(pairs)]
		st = p.arena[n:n:len(p.arena)]
	}
	p.steps[i] = append(st, pairs...)
}

// begin opens a segment at set i: one row, f = the sample probabilities,
// every sample reachable.
func (w *walk) begin(i int) {
	scr, set := w.scr, w.seq[i]
	scr.rows, scr.logScale, scr.dead = 1, 0, false
	scr.tracked = scr.tracked[:0]
	scr.cellRow.Reset(w.e.space.NumCells())
	scr.fit(0, len(set))
	scr.reach = slices.Grow(scr.reach[:0], len(set))[:len(set)]
	for j, s := range set {
		scr.cur[j], scr.reach[j] = s.Prob, true
	}
	w.open = i
	w.checkpoint(i)
}

// run walks on from set i, the segment before it open, to the end of the
// sequence, or until stop takes a cut, at the set run returns (-1 when it
// walked to the end). Without cuts it stops where no step is left to take:
// an enumerating walk needs none, and a dead DP segment is the whole answer,
// no valid path.
func (w *walk) run(i int, stop func(int) bool) int {
	for ; i < len(w.seq) && (w.cut || !w.enum && !w.scr.dead); i++ {
		if !w.step(i) {
			if w.ck != nil {
				w.checkpoint(i)
			}
			continue
		}
		w.finishSeg(i)
		if stop != nil && stop(i) {
			return i
		}
		w.begin(i)
	}
	return -1
}

// step takes the step into set i and reports whether it cuts the sequence;
// a step that does not cut is swept. Kept pairs stand in for scr.pairs only
// while the step reads them (sweep rewrites just their rows); pairs it
// looks up are kept when the walk keeps pairs.
func (w *walk) step(i int) bool {
	scr, prev, cur := w.scr, w.seq[i-1], w.seq[i]
	own := scr.pairs
	kept := w.kept.get(i)
	cut := w.e.lookup(prev, cur, kept, scr, w.cut)
	if kept == nil {
		own = scr.pairs
		if w.kept != nil {
			w.kept.put(i, own)
		}
	}
	if !cut && !w.enum && !scr.dead {
		w.e.sweep(len(prev), cur, scr)
	}
	scr.pairs = own
	return cut
}

// lookup takes step prev → cur's valid pairs into scr.pairs, one M_IL lookup
// per sample pair, and, when cut is set, reports whether the step cuts the
// sequence. A sample is reachable when some reachable sample of the previous
// set connects to it; a step with no reachable sample cuts, even when it has
// valid pairs hanging off unreachable samples (enumeration over the whole
// stretch would produce an empty path set), and every sample after a cut is
// reachable. Within a segment the engines are thus guaranteed a non-empty
// valid path set. A step without a valid pair (a hard cut) cuts whatever was
// reachable. A walk that kept the step's pairs passes them as kept, and
// scr.pairs is kept itself: no M_IL lookup is taken.
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

// finishSeg finishes the open segment, which ends before set end: its valid
// mass, scale and cell-sorted pass masses, appended to the walk's buffer. An
// enumerating walk materializes the segment's paths instead, and falls back
// to the DP walk over the path budget.
func (w *walk) finishSeg(end int) {
	e, scr, seg := w.e, w.scr, w.seq[w.open:end]
	s := walkSeg{start: w.open, lo: len(w.masses)}
	switch {
	case w.enum:
		sum, err := e.summarizeEnum(seg)
		if err != nil { // ErrPathBudget is the only error summarizeEnum produces.
			sum, s.fellBack = e.summarizeDP(seg), true
		}
		s.validMass, s.logScale, s.paths = sum.ValidMass, sum.LogScale, sum.Paths
		w.masses = append(w.masses, sum.PassMass...)
	case scr.dead:
	case len(seg) == 1:
		// Each cell's mass accumulates in sample order, from 0, into the
		// entry interned on the cell's first sight.
		scr.cellRow.Reset(e.space.NumCells())
		for _, x := range seg[0] {
			s.validMass += x.Prob
			cells := e.space.PLocCells(x.Loc)
			pr := 1.0 / float64(len(cells))
			for _, c := range cells {
				i, ok := scr.cellRow.Get(int32(c))
				if !ok {
					i = int32(len(w.masses))
					scr.cellRow.Set(int32(c), i)
					w.masses = append(w.masses, CellMass{Cell: c})
				}
				w.masses[i].Mass += x.Prob * pr
			}
		}
	default:
		rows, m := scr.rows, len(seg[len(seg)-1])
		for j := 0; j < m; j++ {
			s.validMass += scr.cur[j*rows]
		}
		s.logScale = scr.logScale
		if s.validMass == 0 {
			break
		}
		for t, c := range scr.tracked {
			gc := 0.0
			for j := 0; j < m; j++ {
				gc += scr.cur[j*rows+t+1]
			}
			if mass := s.validMass - gc; mass > s.validMass*1e-15 {
				w.masses = append(w.masses, CellMass{Cell: c, Mass: mass})
			}
		}
	}
	s.hi = len(w.masses)
	slices.SortFunc(w.masses[s.lo:], byCell)
	w.segs = append(w.segs, s)
}

// summarize writes the walk's summary over its finished segments into sum —
// the one segment's, or their union in segment order — its pass masses
// appended to masses, and reports whether a segment's enumeration fell back.
func (w *walk) summarize(sum *ObjectSummary, masses []CellMass) (fellBack bool) {
	var paths int64
	for _, s := range w.segs {
		paths, fellBack = paths+s.paths, fellBack || s.fellBack
	}
	if len(w.segs) == 1 {
		s := w.segs[0]
		*sum = ObjectSummary{ValidMass: s.validMass, PassMass: append(masses, w.masses[s.lo:s.hi]...), LogScale: s.logScale, Paths: paths, Segments: 1}
		return fellBack
	}
	scr := w.scr
	scr.union = scr.union[:0]
	for _, s := range w.segs {
		scr.unionAdd(&ObjectSummary{ValidMass: s.validMass, PassMass: w.masses[s.lo:s.hi], LogScale: s.logScale}, w.e.opts.Presence)
	}
	masses = slices.Grow(masses, len(scr.union))
	for _, cm := range scr.union {
		if mass := 1 - cm.Mass; mass > 0 {
			masses = append(masses, CellMass{Cell: cm.Cell, Mass: mass})
		}
	}
	*sum = ObjectSummary{ValidMass: 1, PassMass: masses, Paths: paths, Segments: len(w.segs)}
	return fellBack
}

// checkpoint takes the walk's state after set i into ck when i is the last
// set but one.
func (w *walk) checkpoint(i int) {
	ck := w.ck
	if ck == nil || i != len(w.seq)-2 {
		return
	}
	scr := w.scr
	ck.at, ck.open, ck.rows, ck.logScale, ck.dead = i, w.open, scr.rows, scr.logScale, scr.dead
	ck.cur = ck.cur[:0]
	// A dead segment's matrix is never read again, and an enumerating walk
	// never sweeps one: only its reachability marks are state.
	if !scr.dead && !w.enum {
		ck.cur = append(ck.cur, scr.cur[:len(w.seq[i])*scr.rows]...)
	}
	ck.tracked = append(ck.tracked[:0], scr.tracked...)
	ck.reach = append(ck.reach[:0], scr.reach...)
	w.fresh = true
}

// restore makes the checkpoint the walk's state, its segment open.
func (w *walk) restore() {
	scr, ck := w.scr, w.ck
	scr.rows, scr.logScale, scr.dead = ck.rows, ck.logScale, ck.dead
	scr.tracked = append(scr.tracked[:0], ck.tracked...)
	scr.cellRow.Reset(w.e.space.NumCells())
	for t, c := range ck.tracked {
		scr.cellRow.Set(int32(c), int32(t+1)) // rows are 1-based
	}
	scr.fit(0, len(ck.cur))
	copy(scr.cur, ck.cur)
	scr.reach = append(scr.reach[:0], ck.reach...)
	w.open = ck.open
}

// keepSegs appends the segments of segs that start before end, their pass
// masses copied out of masses (another walk's buffer).
func (w *walk) keepSegs(segs []walkSeg, end int, masses []CellMass) {
	for _, s := range segs {
		if s.start >= end {
			break
		}
		lo := len(w.masses)
		w.masses = append(w.masses, masses[s.lo:s.hi]...)
		s.lo, s.hi = lo, len(w.masses)
		w.segs = append(w.segs, s)
	}
}
