package core

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"tkplq/internal/iupt"
)

// Slabs: Algorithm 1's window-independent work, done once per sealed record.
//
// A slab is slabRecords consecutive records of one sealed part, in canonical
// order. Per object it keeps the object's record positions, the maximal runs
// of equal P-location sets over its intra-merged sample sets, and each run's
// inter-merged set — flat arrays, no per-record sample sets. A window over
// sealed data holds, per object, pieces: the stored runs it contains whole,
// whose sets its reduction shares with the slab, and raw records — the runs
// it cuts at ts or te, the runs a seam between sources may join, and head
// records — which reduceAt runs through the same runBuilder as the raw path.
// DESIGN.md §6 argues that the result is the raw path's, bit for bit.
//
// A slab is built on its first read, once, under the engine's options, and
// kept until its part leaves the table. Slabs are keyed by the part object:
// a part's Identity is unique only within its store, and one engine may read
// tables of several stores.

// slabRecords is the number of records in a slab: the bound on the one-off
// build a read may pay, and the granularity of reuse. Sized on query_cold at
// 1 024, 4 096 and 16 384 records (docs/PERFORMANCE.md § Slabs); positions
// within a slab fit a uint16.
const slabRecords = 4096

// slab is the reduced form of one slab of a sealed part.
type slab struct {
	base   int             // the part position of the slab's first record
	oids   []iupt.ObjectID // the slab's objects, ascending
	objPos []int32         // object k's positions are pos[objPos[k]:objPos[k+1]]
	objRun []int32         // object k's runs are objRun[k] to objRun[k+1]-1
	pos    []uint16        // record positions relative to base, per object ascending
	// Run r spans pos[runStart(r):runEnd[r]]; its set is
	// samples[runOff[r]:runOff[r+1]]. An object's runs cover its positions.
	runEnd  []int32
	runOff  []int32
	samples []iupt.Sample
}

// runStart returns the index in pos of run r's first record: runs are laid
// out object after object, so it is where the previous run ends.
func (s *slab) runStart(r int32) int32 {
	if r == 0 {
		return 0
	}
	return s.runEnd[r-1]
}

// runLen returns the number of records run r spans.
func (s *slab) runLen(r int32) int { return int(s.runEnd[r] - s.runStart(r)) }

// set returns run r's reduced set, capped so that an append copies out.
func (s *slab) set(r int32) iupt.SampleSet {
	lo, hi := s.runOff[r], s.runOff[r+1]
	return s.samples[lo:hi:hi]
}

// bytes estimates the slab's live size: its header, per object its id and
// two offsets, per record its position, per run its two offsets and per
// sample its payload.
func (s *slab) bytes() int64 {
	return 200 + 12*int64(len(s.oids)) + 2*int64(len(s.pos)) + 8*int64(len(s.runEnd)) + 16*int64(len(s.samples))
}

// buildSlab decodes the slab of p starting at position base — each record
// once — groups its records by object and runs every object's sample sets
// through the runBuilder.
func (e *Engine) buildSlab(p iupt.SealedPart, base int) *slab {
	scr := e.getScratch()
	defer e.putScratch(scr)
	n := min(slabRecords, p.Len()-base)
	scr.decoded = scr.decoded[:0]
	recs := p.AppendRecords(scr.recs[:0], &scr.decoded, base, base+n)
	defer func() { scr.recs = recs[:0]; clear(recs) }()

	s := &slab{base: base}
	for i := range recs {
		s.oids = append(s.oids, recs[i].OID)
	}
	slices.Sort(s.oids)
	s.oids = slices.Clip(slices.Compact(s.oids))
	s.objPos = make([]int32, len(s.oids)+1)
	for i := range recs {
		k, _ := slices.BinarySearch(s.oids, recs[i].OID)
		s.objPos[k+1]++
	}
	for k := range s.oids {
		s.objPos[k+1] += s.objPos[k]
	}
	next := slices.Clone(s.objPos[:len(s.oids)])
	s.pos = make([]uint16, n)
	for i := range recs {
		k, _ := slices.BinarySearch(s.oids, recs[i].OID)
		s.pos[next[k]] = uint16(i)
		next[k]++
	}

	s.objRun = make([]int32, len(s.oids)+1)
	runOff := []int32{0}
	var runEnd []int32
	var samples []iupt.Sample
	var arena sampleArena
	arena.out = &scr.slabOut
	for k := range s.oids {
		scr.slabOut = scr.slabOut[:0]
		b := e.newRunBuilder(scr, &arena)
		for _, q := range s.pos[s.objPos[k]:s.objPos[k+1]] {
			b.add(recs[q].Samples)
		}
		b.flush()
		end := s.objPos[k]
		for j, set := range scr.seq {
			end += scr.runLens[j]
			runEnd = append(runEnd, end)
			samples = append(samples, set...)
			runOff = append(runOff, int32(len(samples)))
		}
		clear(scr.seq)
		s.objRun[k+1] = int32(len(runEnd))
	}
	s.runEnd, s.runOff, s.samples = slices.Clone(runEnd), slices.Clone(runOff), slices.Clone(samples)
	return s
}

// slabStore keeps an engine's slabs, per part object. It is shared by the
// engine's per-query views.
type slabStore struct {
	mu    sync.Mutex
	parts map[iupt.SealedPart]*partSlabs
	// lists is the sealed list each table had at its last window build:
	// when a table's list changes, the slabs of parts that left it go.
	lists map[*iupt.Table][]iupt.SealedPart
}

// partSlabs is one part's slabs, by slab index, each built once.
type partSlabs struct {
	table *iupt.Table
	cells []slabCell
}

type slabCell struct {
	once sync.Once
	s    atomic.Pointer[slab]
}

func newSlabStore() *slabStore {
	return &slabStore{parts: make(map[iupt.SealedPart]*partSlabs), lists: make(map[*iupt.Table][]iupt.SealedPart)}
}

// track records the table's sealed list and, when it changed since the last
// call, drops the slabs of the table's parts that are no longer in it (a
// compaction retired them). A window reading a snapshot that still holds such
// a part may bring its slabs back until the list next changes.
func (st *slabStore) track(table *iupt.Table, sealed []iupt.SealedPart) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if last, ok := st.lists[table]; ok && len(last) == len(sealed) && (len(last) == 0 || &last[0] == &sealed[0]) {
		return
	}
	st.lists[table] = sealed
	for p, ps := range st.parts {
		if ps.table == table && !slices.Contains(sealed, p) {
			delete(st.parts, p)
		}
	}
}

// slab returns the k-th slab of p, building it on the first read; readers
// racing that build wait for it. p must be retained by the caller.
func (e *Engine) slab(table *iupt.Table, p iupt.SealedPart, k int) *slab {
	st := e.slabs
	st.mu.Lock()
	ps := st.parts[p]
	if ps == nil {
		ps = &partSlabs{table: table, cells: make([]slabCell, (p.Len()+slabRecords-1)/slabRecords)}
		st.parts[p] = ps
	}
	st.mu.Unlock()
	c := &ps.cells[k]
	c.once.Do(func() { c.s.Store(e.buildSlab(p, k*slabRecords)) })
	return c.s.Load()
}

// bytes sums the live size of every slab built.
func (st *slabStore) bytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var b int64
	for _, ps := range st.parts {
		for i := range ps.cells {
			if s := ps.cells[i].s.Load(); s != nil {
				b += s.bytes()
			}
		}
	}
	return b
}

// piece is a stretch of one object's window sequence: the whole stored runs
// [lo, hi) of slab s, or, with s nil, the records [lo, hi) of the object's
// raw sequence in the window.
type piece struct {
	s      *slab
	lo, hi int32
}

// window is what a window entry holds, by position: the object's id and its
// raw records (the embedded iupt.Window) and, over slabs, its pieces. On the
// raw path pieces is nil, and pieces[i] is nil for an object that has no
// sealed records in the window or whose records interleave in T across
// sources: Seqs[i] is then its whole sequence.
type window struct {
	iupt.Window
	pieces [][]piece
}

// records returns the number of records position i has in the window.
func (w *window) records(i int) int {
	n := len(w.Seqs[i])
	if w.pieces != nil {
		for _, p := range w.pieces[i] {
			if p.s != nil {
				n += int(p.s.runEnd[p.hi-1] - p.s.runStart(p.lo))
			}
		}
	}
	return n
}

// winMem is the recycled memory of a private window over slabs: its columns,
// its pieces and the records it decoded.
type winMem struct {
	oids    []iupt.ObjectID
	seqs    []iupt.Sequence
	lists   [][]piece
	pieces  []piece
	sets    []iupt.TimedSampleSet
	samples iupt.SampleSet
}

var winMemPool = sync.Pool{New: func() any { return new(winMem) }}

// release clears every reference the window left and returns the memory to
// the pool.
func (m *winMem) release() {
	clear(m.seqs)
	clear(m.lists)
	clear(m.pieces)
	clear(m.sets)
	m.oids, m.seqs, m.lists, m.pieces, m.sets, m.samples = m.oids[:0], m.seqs[:0], m.lists[:0], m.pieces[:0], m.sets[:0], m.samples[:0]
	winMemPool.Put(m)
}

// portion is one object's records in one slab of the window: positions
// s.pos[a:b], touching runs r0 to r1-1; the first and last of those runs are
// decoded when the window cuts them or a seam may join them.
type portion struct {
	oid        iupt.ObjectID
	src        int32 // the part's index among the window's parts
	g          int32 // the slab's index in winBuilder.reads
	s          *slab
	k          int32 // the object's index in s
	a, b       int32
	r0, r1     int32
	rawL, rawR bool
}

// slabRead collects the records a window decodes from one slab: the
// positions every object asks for, marked in a bitmap so that decodeAll reads
// them in position order, and each word's rank, the number of marked
// positions before it.
type slabRead struct {
	src   int32
	s     *slab
	first int32 // the index in winBuilder.dec of the slab's first decoded record
	marks [slabRecords / 64]uint64
	rank  [slabRecords / 64]int32
}

// rawReq is one object's share of the decode: the records at s.pos[a:b] of
// read g go to recs[at:at+b-a].
type rawReq struct {
	g, a, b, at int32
}

// winBuilder is the pooled working memory of one window build over slabs.
type winBuilder struct {
	ports  []portion
	spans  [][2]iupt.Time        // per window part: its span clipped to the window
	parts  []iupt.SealedPart     // the window's parts, in seal order
	objs   []objBuild            // per object, in position order
	pieces []piece               // every object's pieces, back to back
	recs   []iupt.TimedSampleSet // every object's raw records, back to back
	reads  []slabRead            // per slab the window touches, in visit order
	reqs   []rawReq              // the records recs waits for
	sorts  [][2]int32            // recs ranges to sort by T once decoded
	dec    []iupt.Record         // the decoded records, slab by slab in position order
}

// objBuild is one object's share of a winBuilder: its pieces and raw
// records, or head, the object's head sequence taken as it is.
type objBuild struct {
	oid          iupt.ObjectID
	head         iupt.Sequence
	headOnly     bool
	pieces, recs [2]int32
}

var winBuilderPool = sync.Pool{New: func() any { return new(winBuilder) }}

func (wb *winBuilder) release() {
	clear(wb.ports)
	clear(wb.parts)
	clear(wb.objs)
	clear(wb.pieces)
	clear(wb.recs)
	clear(wb.reads)
	clear(wb.dec)
	wb.ports, wb.spans, wb.parts, wb.objs = wb.ports[:0], wb.spans[:0], wb.parts[:0], wb.objs[:0]
	wb.pieces, wb.recs, wb.reads, wb.reqs, wb.sorts, wb.dec = wb.pieces[:0], wb.recs[:0], wb.reads[:0], wb.reqs[:0], wb.sorts[:0], wb.dec[:0]
	winBuilderPool.Put(wb)
}

// readWindow materializes [ts, te] of table as a window over slabs, with the
// identity of the snapshot it read; w is nil when known still names the
// window. Memory comes from rec's pools for a private window (rec non-nil),
// else from the heap, at the size the window keeps.
func (e *Engine) readWindow(ctx context.Context, table *iupt.Table, ts, te iupt.Time, known *iupt.WindowIdentity, rec *recycler) (w *window, id iupt.WindowIdentity, err error) {
	id, err = iupt.ReadWindow(table, ts, te, known, func(head []iupt.Record, sealed []iupt.SealedPart) (err error) {
		w, err = e.slabWindow(ctx, table, head, sealed, ts, te, rec)
		return err
	})
	return w, id, err
}

// slabWindow builds the window from the head records inside it and the
// table's sealed parts (retained by the caller).
func (e *Engine) slabWindow(ctx context.Context, table *iupt.Table, head []iupt.Record, sealed []iupt.SealedPart, ts, te iupt.Time, rec *recycler) (*window, error) {
	e.slabs.track(table, sealed)
	wb := winBuilderPool.Get().(*winBuilder)
	defer wb.release()

	// Every object's portions, part by part in seal order, slab by slab.
	for _, p := range sealed {
		spanLo, spanHi := p.Span()
		if spanHi < ts || spanLo > te {
			continue
		}
		lo, hi := p.Locate(ts, te)
		if hi <= lo {
			continue
		}
		// The part's span clipped to the window bounds its records in it.
		src := int32(len(wb.parts))
		wb.parts = append(wb.parts, p)
		wb.spans = append(wb.spans, [2]iupt.Time{max(spanLo, ts), min(spanHi, te)})
		for k := lo / slabRecords; k*slabRecords < hi; k++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			s := e.slab(table, p, k)
			g := int32(len(wb.reads))
			wb.reads = append(wb.reads, slabRead{src: src, s: s})
			wlo, whi := max(lo-s.base, 0), min(hi-s.base, len(s.pos))
			interior := wlo == 0 && whi == len(s.pos)
			for j, oid := range s.oids {
				a, b := s.objPos[j], s.objPos[j+1]
				if !interior {
					ps := s.pos[a:b]
					a += int32(sort.Search(len(ps), func(i int) bool { return int(ps[i]) >= wlo }))
					b = s.objPos[j] + int32(sort.Search(len(ps), func(i int) bool { return int(ps[i]) >= whi }))
				}
				if a < b {
					wb.ports = append(wb.ports, portion{oid: oid, src: src, g: g, s: s, k: int32(j), a: a, b: b})
				}
			}
		}
	}
	slices.SortStableFunc(wb.ports, func(x, y portion) int { return cmp.Compare(x.oid, y.oid) })

	// The head's records grouped, and where decoded sample sets go: all in
	// rec's pools for a private window, else in memory the window keeps.
	var hw iupt.Window
	var samples *iupt.SampleSet
	if rec != nil {
		hw, samples = iupt.GroupSequences(head, rec.win), &rec.mem.samples
	} else {
		hw, samples = iupt.GroupSequences(head), new(iupt.SampleSet)
	}

	// Objects ascending: a merge of the portions' ids with the head's.
	sealedObjs := false
	for i, j := 0, 0; i < len(wb.ports) || j < len(hw.OIDs); {
		var ob objBuild
		if i < len(wb.ports) && (j == len(hw.OIDs) || wb.ports[i].oid <= hw.OIDs[j]) {
			ob.oid = wb.ports[i].oid
		} else {
			ob.oid = hw.OIDs[j]
		}
		if j < len(hw.OIDs) && hw.OIDs[j] == ob.oid {
			ob.head = hw.Seqs[j]
			j++
		}
		n := i
		for n < len(wb.ports) && wb.ports[n].oid == ob.oid {
			n++
		}
		if n == i {
			ob.headOnly = true
		} else {
			sealedObjs = true
			e.buildObject(wb, &ob, wb.ports[i:n])
		}
		i = n
		wb.objs = append(wb.objs, ob)
	}
	wb.decodeAll(samples)
	return wb.finish(rec, sealedObjs), nil
}

// buildObject lays out one object with sealed records: its pieces and raw
// records, or, when its sources interleave in T, its whole sequence.
func (e *Engine) buildObject(wb *winBuilder, ob *objBuild, ports []portion) {
	ob.pieces[0], ob.recs[0] = int32(len(wb.pieces)), int32(len(wb.recs))
	defer func() { ob.pieces[1], ob.recs[1] = int32(len(wb.pieces)), int32(len(wb.recs)) }()
	if wb.interleaved(ports, ob.head) {
		for x := range ports {
			wb.want(&ports[x], ports[x].a, ports[x].b)
		}
		wb.recs = append(wb.recs, ob.head...)
		// Concatenated in source order, so a stable sort by T, once decoded,
		// is the merge's (T, source, position) order.
		wb.sorts = append(wb.sorts, [2]int32{ob.recs[0], int32(len(wb.recs))})
		return
	}
	inter := !e.opts.DisableReduction && !e.opts.DisableInterMerge
	for x := range ports {
		pt := &ports[x]
		s := pt.s
		k := pt.k
		runs := s.runEnd[s.objRun[k]:s.objRun[k+1]]
		// r0 is the run holding position a, r1-1 the one holding b-1.
		pt.r0 = s.objRun[k] + int32(sort.Search(len(runs), func(i int) bool { return runs[i] > pt.a }))
		pt.r1 = s.objRun[k] + int32(sort.Search(len(runs), func(i int) bool { return runs[i] >= pt.b })) + 1
		pt.rawL = s.runStart(pt.r0) < pt.a
		pt.rawR = s.runEnd[pt.r1-1] > pt.b
		if x > 0 && inter {
			prev := &ports[x-1]
			if samePLocSet(prev.s.set(prev.r1-1), s.set(pt.r0)) {
				prev.rawR, pt.rawL = true, true
			}
		}
	}
	if len(ob.head) > 0 && inter {
		ports[len(ports)-1].rawR = true
	}
	for _, pt := range ports {
		for r := pt.r0; r < pt.r1; r++ {
			if r == pt.r0 && pt.rawL || r == pt.r1-1 && pt.rawR {
				lo := int32(len(wb.recs)) - ob.recs[0]
				wb.want(&pt, max(pt.s.runStart(r), pt.a), min(pt.s.runEnd[r], pt.b))
				wb.addPiece(piece{lo: lo, hi: int32(len(wb.recs)) - ob.recs[0]}, ob)
				continue
			}
			wb.addPiece(piece{s: pt.s, lo: r, hi: r + 1}, ob)
		}
	}
	if len(ob.head) > 0 {
		lo := int32(len(wb.recs)) - ob.recs[0]
		wb.recs = append(wb.recs, ob.head...)
		wb.addPiece(piece{lo: lo, hi: int32(len(wb.recs)) - ob.recs[0]}, ob)
	}
}

// addPiece appends p to the object's pieces, extending the last one when p
// continues it.
func (wb *winBuilder) addPiece(p piece, ob *objBuild) {
	if n := len(wb.pieces); n > int(ob.pieces[0]) {
		if last := &wb.pieces[n-1]; last.s == p.s && last.hi == p.lo {
			last.hi = p.hi
			return
		}
	}
	wb.pieces = append(wb.pieces, p)
}

// interleaved reports whether the object's sources may interleave in T, so
// that concatenating them would break canonical order (DESIGN.md §6, point
// 5). Within the window, a part's records lie in its clipped span; an
// earlier source that ends no later than the next one starts concatenates,
// ties included, since ties go to the earlier source.
func (wb *winBuilder) interleaved(ports []portion, head iupt.Sequence) bool {
	for x := 1; x < len(ports); x++ {
		if a, b := ports[x-1].src, ports[x].src; a != b && wb.spans[a][1] > wb.spans[b][0] {
			return true
		}
	}
	return len(head) > 0 && wb.spans[ports[len(ports)-1].src][1] > head[0].T
}

// want reserves the next b-a records of wb.recs for the records at
// pt.s.pos[a:b], which decodeAll fills.
func (wb *winBuilder) want(pt *portion, a, b int32) {
	rd := &wb.reads[pt.g]
	for _, q := range pt.s.pos[a:b] {
		rd.marks[q/64] |= 1 << (q % 64)
	}
	at := len(wb.recs)
	wb.recs = slices.Grow(wb.recs, int(b-a))[:at+int(b-a)]
	wb.reqs = append(wb.reqs, rawReq{g: pt.g, a: a, b: b, at: int32(at)})
}

// decodeAll decodes every record the window's objects want, slab by slab in
// position order — each maximal stretch of wanted positions in one call, so
// a window reads a part's columns forward, the way they are laid out —
// their sample sets carved from samples, and hands each object its records.
// It then sorts the records of every object whose sources interleave.
func (wb *winBuilder) decodeAll(samples *iupt.SampleSet) {
	if len(wb.reqs) == 0 {
		return
	}
	for g := range wb.reads {
		rd := &wb.reads[g]
		rd.first = int32(len(wb.dec))
		n := int32(0)
		for w, m := range rd.marks {
			rd.rank[w] = n
			n += int32(bits.OnesCount64(m))
		}
		if n == 0 {
			continue
		}
		p := wb.parts[rd.src]
		for q, end := 0, len(rd.s.pos); q < end; {
			m := rd.marks[q/64] >> (q % 64)
			if m == 0 {
				q = (q/64 + 1) * 64
				continue
			}
			q += bits.TrailingZeros64(m)
			r := q + 1
			for r < end && rd.marks[r/64]&(1<<(r%64)) != 0 {
				r++
			}
			wb.dec = p.AppendRecords(wb.dec, samples, rd.s.base+q, rd.s.base+r)
			q = r
		}
	}
	for _, rq := range wb.reqs {
		rd := &wb.reads[rq.g]
		for j, q := range rd.s.pos[rq.a:rq.b] {
			below := rd.marks[q/64] & (1<<(q%64) - 1)
			d := &wb.dec[rd.first+rd.rank[q/64]+int32(bits.OnesCount64(below))]
			wb.recs[rq.at+int32(j)] = iupt.TimedSampleSet{T: d.T, Samples: d.Samples}
		}
	}
	for _, r := range wb.sorts {
		slices.SortStableFunc(wb.recs[r[0]:r[1]], func(x, y iupt.TimedSampleSet) int { return cmp.Compare(x.T, y.T) })
	}
}

// finish copies the built window out: into rec's pooled memory for a private
// window, else into fresh memory at exact size. Without any sealed object it
// is the head's window as grouped, with no pieces.
func (wb *winBuilder) finish(rec *recycler, sealedObjs bool) *window {
	var (
		m      *winMem
		oids   *[]iupt.ObjectID
		seqs   *[]iupt.Sequence
		lists  *[][]piece
		pieces *[]piece
		sets   *[]iupt.TimedSampleSet
	)
	if rec != nil {
		m = rec.mem
		oids, seqs, lists, pieces, sets = &m.oids, &m.seqs, &m.lists, &m.pieces, &m.sets
	}
	w := &window{Window: iupt.Window{OIDs: iupt.Carve(oids, len(wb.objs)), Seqs: iupt.Carve(seqs, len(wb.objs))}}
	if sealedObjs {
		w.pieces = iupt.Carve(lists, len(wb.objs))
	}
	flatPieces := iupt.Carve(pieces, len(wb.pieces))
	copy(flatPieces, wb.pieces)
	flatRecs := iupt.Carve(sets, len(wb.recs))
	copy(flatRecs, wb.recs)
	for i, ob := range wb.objs {
		w.OIDs[i] = ob.oid
		if ob.headOnly {
			w.Seqs[i] = ob.head
			continue
		}
		w.Seqs[i] = flatRecs[ob.recs[0]:ob.recs[1]:ob.recs[1]]
		if ob.pieces[1] > ob.pieces[0] {
			w.pieces[i] = flatPieces[ob.pieces[0]:ob.pieces[1]:ob.pieces[1]]
		}
	}
	return w
}
