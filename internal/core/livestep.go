package core

import (
	"slices"

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
	fellBack                bool // a segment's enumeration fell back (EngineEnum)

	// The reduction: each maximal run's merged set, and the records it spans.
	red     []iupt.SampleSet
	runLens []int32
	arena   sampleArena

	// The walk over red, kept while the object is not pruned (walked): every
	// segment in order with their pass masses back to back, the spare pair
	// being the buffers the next walk fills; the walk's state after the last
	// set but one; and each step's valid pairs.
	walked      bool
	segs        []walkSeg
	masses      []CellMass
	spareSegs   []walkSeg
	spareMasses []CellMass
	ck          walkCheckpoint
	pairs       pairStore
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
// through e (the monitor's engine) and the query's reachMask.
func (o *liveObject) step(e *Engine, mask []bool, scr *summarizeScratch) {
	d, c, front := o.reduce(e, scr)
	o.trimmed, o.added, o.spliced = 0, 0, 0
	if !e.opts.DisableReduction && !reaches(o.red, mask) {
		o.sum, o.walked = nil, false
		return
	}
	if !o.walked {
		c, front = 0, true
	}
	o.walk(e, scr, d, c, front)
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
	steps := o.pairs.steps
	d = min(d, len(steps))
	clear(steps[:d])
	steps = steps[d:]
	if front && len(steps) > 1 {
		steps[1] = steps[1][:0]
	}
	for i := c; i < len(steps); i++ {
		steps[i] = steps[i][:0]
	}
	o.pairs.steps = steps
	w := walk{e: e, scr: scr, seq: o.red, cut: !e.opts.StrictPaths, enum: e.opts.Engine == EngineEnum,
		segs: o.spareSegs[:0], masses: o.spareMasses[:0], kept: &o.pairs, ck: ck}
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
		from = w.run(1, func(i int) bool {
			for oi < len(old) && old[oi].start < i {
				oi++
			}
			return i < c && oi < len(old) && old[oi].start == i
		})
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
			w.keepSegs(old[oi:], ck.open, o.masses)
			w.restore()
			at = ck.at
		} else {
			w.keepSegs(old[oi:], at, o.masses)
			w.begin(at)
		}
		w.run(at+1, nil)
	}
	if !w.fresh && (ck.at != n-2 || ck.open < max(from, 0) || ck.at >= c) {
		ck.at = -1 // the old state one set back is not this walk's
	}
	w.finishSeg(n)
	if o.sum == nil {
		o.sum = new(ObjectSummary)
	}
	o.fellBack = w.summarize(o.sum, o.sum.PassMass[:0])
	o.spareSegs, o.spareMasses = o.segs[:0], o.masses[:0]
	o.segs, o.masses, o.walked = w.segs, w.masses, true
}
