package core

import (
	"slices"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// liveObject is one object of a monitor's window: its records, their
// Algorithm 1 reduction and the Equation 1 walk over the reduction, each kept
// between ticks so that a tick redoes only the part of each it changed. The
// argument that the result is bit-identical to a fresh reduction and
// Summarize of the window is DESIGN.md §8.
type liveObject struct {
	oid   iupt.ObjectID
	seq   iupt.Sequence    // the object's records in the window, canonical order
	intra []iupt.SampleSet // each record's intra-merged set; nil until the step after its splice
	sum   *ObjectSummary   // nil = pruned by PSL∩Q

	// What the tick changed, set by advanceLocked and consumed by step:
	// trimmed records left the front, added records were spliced in, the
	// first of them at position spliced of the new seq.
	dirty                   bool
	trimmed, added, spliced int
	fellBack                bool // the step's Summarize fell back (EngineEnum)

	// The reduction: each maximal run's merged set, and the records it spans.
	red     []iupt.SampleSet
	runLens []int32
	arena   sampleArena

	// The walk over red, kept under the default walk (cuts on, DP) while the
	// object is not pruned (walked): every segment in order, the last one
	// open, with their pass masses back to back; the spare pair is the
	// buffers the next walk fills. ck is the walk's state after the last set
	// but one. steps[i] holds the valid pairs of the step into red[i],
	// carved from pairArena: a function of the two sets, so a walk that
	// passes the step again takes no M_IL lookup.
	walked      bool
	segs        []liveSeg
	masses      []CellMass
	spareSegs   []liveSeg
	spareMasses []CellMass
	ck          walkCheckpoint
	steps       []liveStep
	pairArena   []stepPair
}

// liveStep is the kept valid pairs of one step. A stale step's pairs are
// taken again, into its array when they fit: a rebuilt set keeps its
// P-location set, and so the step its number of valid pairs.
type liveStep struct {
	pairs []stepPair
	ok    bool
}

// pairArenaSize is the length of a live object's pair arena chunk.
const pairArenaSize = 256

// liveSeg is one segment of a kept walk: the index of its first reduced set
// and what finish made of it, its pass masses being masses[lo:hi] of the
// walk's buffer.
type liveSeg struct {
	start     int
	validMass float64
	logScale  float64
	lo, hi    int
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

// newLiveObject returns an object whose records seq are all new to it.
func newLiveObject(oid iupt.ObjectID, seq iupt.Sequence) *liveObject {
	return &liveObject{
		oid:   oid,
		seq:   seq,
		intra: make([]iupt.SampleSet, len(seq)),
		added: len(seq),
		dirty: len(seq) > 0,
		arena: sampleArena{slabCap: arenaSlabSize},
		ck:    walkCheckpoint{at: -1},
	}
}

// trim drops the object's first lo records, which left the window. It
// reslices: the sequence is capped or the monitor's own, so a later append
// never writes into an array another sequence reads.
func (o *liveObject) trim(lo int) {
	clear(o.intra[:lo])
	o.seq, o.intra, o.trimmed, o.dirty = o.seq[lo:], o.intra[lo:], lo, true
}

// splice inserts rec at its canonical position in seq and notes the change.
func (o *liveObject) splice(rec iupt.Record) {
	var pos int
	o.seq, pos = spliceRecord(o.seq, iupt.TimedSampleSet{T: rec.T, Samples: rec.Samples})
	o.intra = slices.Insert(o.intra, pos, nil)
	if o.added == 0 || pos < o.spliced {
		o.spliced = pos
	}
	o.added++
	o.dirty = true
}

// step brings a dirty object's reduction and summary up to its records,
// through e (the monitor's engine) and the query's PSL∩Q marks hits.
func (o *liveObject) step(e *Engine, hits []bool, scr *summarizeScratch) {
	d, c, front := o.reduce(e, scr)
	o.trimmed, o.added, o.spliced, o.fellBack = 0, 0, 0, false
	if !e.opts.DisableReduction && !reachesQuery(o.red, hits) {
		o.sum, o.walked = nil, false
		return
	}
	if e.opts.StrictPaths || e.opts.Engine == EngineEnum {
		o.sum, o.fellBack = e.summarizeScratch(o.red, scr)
		return
	}
	if !o.walked {
		c, front = 0, true
	}
	o.walk(e, scr, d, c, front)
}

// reachesQuery is the oracle's PSL∩Q check (prunedBy) over a reduced
// sequence: hits marks the P-locations one of whose cells holds a queried
// S-location, so a sample with a marked location is a PSL in the query.
func reachesQuery(red []iupt.SampleSet, hits []bool) bool {
	for _, x := range red {
		for _, s := range x {
			if hits[s.Loc] {
				return true
			}
		}
	}
	return false
}

// reduce brings the reduction up to seq after the tick trimmed and spliced
// it. It intra-merges the spliced records, drops the runs whose records all
// left (d of them), rebuilds the run the new front cuts (front) and every
// run from the one holding the record before the first splice on, from
// their records' intra-merged sets through the run builder, and returns the
// index of the first set so rebuilt (c; len(red) when nothing was spliced).
// Every other run keeps its set: its records, and so its mean, did not
// change, and its neighbours' P-location sets still differ from its own.
func (o *liveObject) reduce(e *Engine, scr *summarizeScratch) (d, c int, front bool) {
	if o.added > 0 {
		for i := o.spliced; i < len(o.seq); i++ {
			if o.intra[i] == nil {
				o.intra[i] = o.intraSet(e, scr, o.seq[i].Samples)
			}
		}
	}
	t := o.trimmed
	for d < len(o.runLens) && t >= int(o.runLens[d]) {
		t -= int(o.runLens[d])
		d++
	}
	clear(o.red[:d]) // an emptied front must not pin the arena behind it
	o.red, o.runLens = o.red[d:], o.runLens[d:]
	if t > 0 {
		o.runLens[0] -= int32(t)
		front = true
	}
	r, b := len(o.red), len(o.seq)-o.added // the rebuild's first run and record
	if o.added > 0 {
		for r > 0 && b >= o.spliced {
			r--
			b -= int(o.runLens[r])
		}
	}
	if front && r > 0 {
		o.runs(e, scr, o.intra[:o.runLens[0]])
		o.red[0] = scr.seq[0]
		clear(scr.seq)
	}
	if o.added > 0 {
		o.runs(e, scr, o.intra[b:])
		o.red = append(o.red[:r], scr.seq...)
		o.runLens = append(o.runLens[:r], scr.runLens...)
		clear(scr.seq)
	}
	return d, r, front || r == 0
}

// intraSet returns a record's intra-merged set (the runBuilder's first
// merge), carved from the object's arena: the record's own set when intra
// merging is off.
func (o *liveObject) intraSet(e *Engine, scr *summarizeScratch, x iupt.SampleSet) iupt.SampleSet {
	if e.opts.DisableReduction || e.opts.DisableIntraMerge {
		return x
	}
	m := e.intraMergeInto(x, scr.runBuf[:0], scr)
	scr.runBuf = m[:0]
	out := o.arena.alloc(len(m))
	copy(out, m)
	return out
}

// runs feeds intra-merged sets through the run builder, intra off, into
// scr.seq and scr.runLens, the inter-merged sets carved from the object's
// arena.
func (o *liveObject) runs(e *Engine, scr *summarizeScratch, intra []iupt.SampleSet) {
	b := e.newRunBuilder(scr, &o.arena)
	b.intra = false
	for _, x := range intra {
		b.add(x)
	}
	b.flush()
}

// walk brings the kept walk up to red after reduce dropped d sets from the
// front, rebuilt the first when front is set, and rebuilt every set from c
// on. A cut resets the walk (begin), so from any cut on the walk is a
// function of the sets after it, and the old walk is reused from the first
// cut the new one shares with it:
//
//   - with a new front, the walk starts afresh there and runs until it cuts
//     where the old walk also began a segment, before c (at the latest at the
//     first hard cut, a step without a valid pair, which every walk cuts);
//   - the old segments from that cut up to the last old cut before c are
//     kept, and the walk resumes from that cut, or, when the checkpoint (the
//     state one set back from the old end) lies in that range and before c,
//     from the checkpoint;
//   - the union is rebuilt from the segments in order.
//
// The checkpoint is one set back because a record that folds into the last
// run changes the last set's mean.
func (o *liveObject) walk(e *Engine, scr *summarizeScratch, d, c int, front bool) {
	old := o.segs
	for i := range old {
		old[i].start -= d
	}
	ck := &o.ck
	if ck.at >= 0 {
		ck.at, ck.open = ck.at-d, ck.open-d
	}
	// The kept steps: the dropped sets' go, the step out of a rebuilt front
	// and every step into a rebuilt set go stale.
	d = min(d, len(o.steps))
	clear(o.steps[:d])
	o.steps = o.steps[d:]
	if front && len(o.steps) > 1 {
		o.steps[1].ok = false
	}
	for i := c; i < len(o.steps); i++ {
		o.steps[i].ok = false
	}
	w := liveWalk{e: e, scr: scr, o: o, own: scr.pairs, ck: ck, segs: o.spareSegs[:0], masses: o.spareMasses[:0]}
	n := len(o.red)

	// The old segments from oi on start at or after the new front.
	oi := 0
	for oi < len(old) && old[oi].start < 0 {
		oi++
	}
	from := -1 // the cut from which the old walk holds
	if !front && oi < len(old) && old[oi].start == 0 && c > 0 {
		from = 0
	} else {
		w.begin(0)
		w.checkpoint(0, n)
		for i := 1; i < n; i++ {
			if w.advance(i) {
				for oi < len(old) && old[oi].start < i {
					oi++
				}
				if i < c && oi < len(old) && old[oi].start == i {
					from = i
					break
				}
				w.begin(i)
			}
			w.checkpoint(i, n)
		}
	}
	if from >= 0 {
		// Keep the old segments up to the last old cut before c and walk on
		// from there, or from the checkpoint.
		li := oi
		for li+1 < len(old) && old[li+1].start < c {
			li++
		}
		at := old[li].start
		if !w.fresh && ck.at >= 0 && ck.open >= from && ck.at < c {
			w.keep(old[oi:], ck.open, o.masses)
			w.restore()
			at = ck.at
		} else {
			w.keep(old[oi:], at, o.masses)
			w.begin(at)
			w.checkpoint(at, n)
		}
		for i := at + 1; i < n; i++ {
			if w.advance(i) {
				w.begin(i)
			}
			w.checkpoint(i, n)
		}
	}
	if !w.fresh && (ck.at != n-2 || ck.open < max(from, 0) || ck.at >= c) {
		ck.at = -1 // the old state one set back is not this walk's
	}
	w.finishSeg(n)
	if o.sum == nil {
		o.sum = new(ObjectSummary)
	}
	w.summarize(o.sum, e.opts.Presence)
	o.spareSegs, o.spareMasses = o.segs[:0], o.masses[:0]
	o.segs, o.masses, o.walked = w.segs, w.masses, true
	scr.pairs = w.own // the pool's next user writes it
}

// liveWalk is one tick's walk over a live object's reduced sequence: the
// segments it finished, in order, and the open one's start; the walk's
// state is in scr.
type liveWalk struct {
	e      *Engine
	scr    *summarizeScratch
	o      *liveObject
	own    []stepPair // the scratch's pair array
	ck     *walkCheckpoint
	fresh  bool // ck was taken by this walk
	open   int
	segs   []liveSeg
	masses []CellMass
}

// begin opens a segment at set i.
func (w *liveWalk) begin(i int) {
	w.e.begin(w.o.red[i], w.scr)
	w.open = i
}

// advance steps into set i over the step's kept pairs, taking and keeping
// them first when the object holds none; on a cut it finishes the open
// segment there. Kept pairs become scr.pairs themselves (sweep only rewrites
// their rows), so new ones are taken in the scratch's own array, own, which
// the walk hands back when it ends.
func (w *liveWalk) advance(i int) bool {
	o, scr := w.o, w.scr
	prev, cur := o.red[i-1], o.red[i]
	var kept []stepPair // nil also for a kept step without pairs: taken again
	if i < len(o.steps) && o.steps[i].ok {
		kept = o.steps[i].pairs
	}
	if kept == nil {
		scr.pairs = w.own
	}
	cut := w.e.lookup(prev, cur, kept, scr, true)
	if kept == nil {
		w.own = scr.pairs
		o.keepStep(i, scr.pairs)
	}
	if !cut {
		if !scr.dead {
			w.e.sweep(len(prev), cur, scr)
		}
		return false
	}
	w.finishSeg(i)
	return true
}

// keepStep keeps a copy of step i's valid pairs.
func (o *liveObject) keepStep(i int, pairs []stepPair) {
	for len(o.steps) <= i {
		o.steps = append(o.steps, liveStep{})
	}
	st := &o.steps[i]
	st.ok = true
	if len(pairs) <= cap(st.pairs) {
		st.pairs = st.pairs[:len(pairs)]
		copy(st.pairs, pairs)
		return
	}
	if len(o.pairArena)+len(pairs) > cap(o.pairArena) {
		o.pairArena = make([]stepPair, 0, max(pairArenaSize, len(pairs)))
	}
	n := len(o.pairArena)
	o.pairArena = append(o.pairArena, pairs...)
	st.pairs = o.pairArena[n:len(o.pairArena):len(o.pairArena)]
}

// finishSeg finishes the open segment, which ends before set end.
func (w *liveWalk) finishSeg(end int) {
	sum, _ := w.e.finish(w.o.red[w.open:end], w.scr, false)
	lo := len(w.masses)
	w.masses = append(w.masses, sum.PassMass...)
	w.segs = append(w.segs, liveSeg{start: w.open, validMass: sum.ValidMass, logScale: sum.LogScale, lo: lo, hi: len(w.masses)})
}

// keep appends the old segments of segs that start before end, their pass
// masses copied out of masses.
func (w *liveWalk) keep(segs []liveSeg, end int, masses []CellMass) {
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

// checkpoint takes the walk's state after set i when i is the last set but
// one of an n-set sequence.
func (w *liveWalk) checkpoint(i, n int) {
	if i != n-2 {
		return
	}
	scr, ck := w.scr, w.ck
	ck.at, ck.open, ck.rows, ck.logScale, ck.dead = i, w.open, scr.rows, scr.logScale, scr.dead
	ck.cur = ck.cur[:0]
	if !scr.dead { // a dead segment's matrix is never read again
		ck.cur = append(ck.cur, scr.cur[:len(w.o.red[i])*scr.rows]...)
	}
	ck.tracked = append(ck.tracked[:0], scr.tracked...)
	ck.reach = append(ck.reach[:0], scr.reach...)
	w.fresh = true
}

// restore makes the checkpoint the walk's state, its segment open.
func (w *liveWalk) restore() {
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

// summarize writes summarizeWalk's result over the walk's segments into sum
// — the one segment's masses, or their union in segment order — reusing
// sum's PassMass array: the monitor is the summary's only reader.
func (w *liveWalk) summarize(sum *ObjectSummary, mode PresenceMode) {
	masses := sum.PassMass[:0]
	if len(w.segs) == 1 {
		s := w.segs[0]
		*sum = ObjectSummary{ValidMass: s.validMass, PassMass: append(masses, w.masses[s.lo:s.hi]...), LogScale: s.logScale, Segments: 1}
		return
	}
	scr := w.scr
	scr.union = scr.union[:0]
	for _, s := range w.segs {
		scr.unionAdd(&ObjectSummary{ValidMass: s.validMass, PassMass: w.masses[s.lo:s.hi], LogScale: s.logScale}, mode)
	}
	*sum = ObjectSummary{ValidMass: 1, PassMass: append(masses, scr.unionMasses()...), Segments: len(w.segs)}
}
