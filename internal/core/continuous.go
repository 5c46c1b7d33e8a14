package core

import (
	"cmp"
	"slices"
	"sync"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// monitor answers the *online, continuous* variant of the top-k popular
// location query that the paper's §7 leaves as future work: positioning
// records stream in, and the k most popular S-locations over a sliding window
// of the recent past are pushed to the subscriptions sharing the monitor
// (Engine.Subscribe is the only way to create one).
//
// Evaluation is incremental. The monitor retains, per object of its current
// window, the positioning sequence, its reduction, the walk over it and the
// presence summary (liveObject); an ingested record perturbs exactly one
// object's sequence (spliced in at its canonical position — no table scan),
// and a window slide touches only the objects whose records enter or leave
// the window. Only the dirty objects are stepped, and a step redoes only the
// runs and the stretches of the walk the tick changed (DESIGN.md §8). The
// cheap parts of an evaluation are repeated in full precisely because they
// must be: every retained summary is fed, as a presence row in canonical
// ascending object order, to the same finisher that sums and ranks every
// one-shot query (float addition is non-associative, so delta-updating a sum
// would break the determinism contract). The result of every incremental
// evaluation is therefore bit-identical to a from-scratch evaluation of the
// same window, at every worker count, for all three algorithms.
//
// The window's horizon is the data's: nobody supplies a "now". The table is
// read once, by the build, under the owner's ingest lock (the monitor's
// barrier); every append is announced with Engine.NotifyAppend under that
// same lock, so the build's read and the mailbox split the table's records
// exactly: those the read saw are drained and discarded with it, every later
// one reaches the mailbox in table order. After the build the mailbox is the
// monitor's only input — a tick drains it, derives the window end from what
// it drained and adds its length to the covered record count — so every
// record is reflected in the monitor's state exactly once, and an update's
// Records and [Ts, Te] describe the same prefix of the table.
type monitor struct {
	eng      *Engine
	table    *iupt.Table
	query    []indoor.SLocID // canonical (ascending) query set
	mask     []bool          // the query's reachMask (PSL∩Q)
	k        int
	window   iupt.Time
	barrier  sync.Locker   // serializes the build's table read with the owner's appends
	refs     int           // live subscriptions; guarded by eng.mons.mu
	key      monitorKey    // the registry key
	stop     chan struct{} // closed by shutdown: ends the eval loop
	loopDone chan struct{} // closed by the eval loop as it returns

	// pendMu guards the notification mailbox. It is a leaf lock: enqueue runs
	// under the owner's ingest lock and must never wait on an evaluation.
	pendMu   sync.Mutex
	pending  []iupt.Record // announced records the state does not reflect, in table order
	observed int
	wake     chan struct{} // cap 1; kicks the subscription eval loop

	// mu guards the window state, results and subscriber set.
	mu      sync.Mutex
	built   bool
	ts, te  iupt.Time
	covered int           // table record count the window state reflects
	objs    []*liveObject // ascending object id: every object with records in the window
	dirty   []*liveObject // the tick's dirty objects, ascending
	row     []float64     // rerankLocked's presence row
	results []Result
	stats   Stats
	seq     uint64 // update sequence number, bumped per pushed change
	subs    map[*Subscription]bool
	closed  bool

	evals      int64 // incremental evaluations performed
	dirtyTotal int64 // object summaries recomputed across them
	pushed     int64 // ranking changes delivered to subscribers
}

// newMonitor assembles a monitor; query must be canonical and validated.
func (e *Engine) newMonitor(cfg SubscribeConfig, query []indoor.SLocID, k int, window iupt.Time) *monitor {
	return &monitor{
		eng:      e,
		table:    cfg.Table,
		query:    query,
		mask:     e.reachMask(query),
		k:        k,
		window:   window,
		barrier:  cfg.Barrier,
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
		wake:     make(chan struct{}, 1),
		subs:     make(map[*Subscription]bool),
		row:      make([]float64, len(query)),
	}
}

// enqueue files one announced append into the mailbox. It runs under the
// monitor's barrier (the owner's ingest lock) right after the append, so the
// mailbox keeps the table's order.
func (m *monitor) enqueue(recs []iupt.Record) {
	m.pendMu.Lock()
	m.pending = append(m.pending, recs...)
	m.observed += len(recs)
	m.pendMu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// Observed returns the number of records announced to the monitor since it
// attached.
func (m *monitor) Observed() int {
	m.pendMu.Lock()
	defer m.pendMu.Unlock()
	return m.observed
}

// shutdown stops the eval loop and returns once it has exited. Its one
// caller is the registry's release of the last reference, and a subscription
// detaches before it releases, so there is never a subscriber left to close
// here. The wait is outside m.mu, which the loop takes to see closed.
func (m *monitor) shutdown() {
	m.mu.Lock()
	m.closed = true
	close(m.stop)
	m.mu.Unlock()
	<-m.loopDone
}

// drainPending empties the mailbox.
func (m *monitor) drainPending() []iupt.Record {
	m.pendMu.Lock()
	defer m.pendMu.Unlock()
	out := m.pending
	m.pending = nil
	return out
}

// refreshLocked brings the window state up to the data: [te-window, te] with
// te the latest record timestamp announced so far. Nothing but an announced
// append can move it, so a built monitor with an empty mailbox is current.
// Caller holds m.mu.
func (m *monitor) refreshLocked() {
	if !m.built {
		m.rebuildLocked()
	} else if recs := m.drainPending(); len(recs) > 0 {
		m.advanceLocked(recs)
	} else {
		return // retained result is current
	}
	m.rerankLocked()
	m.evals++
}

// rebuildLocked builds the window state from scratch — the once-per-monitor
// full pass every later evaluation deltas against, and the monitor's one
// table read. The horizon is the table's upper time bound (0 for an empty
// table). One hold of the barrier makes the drain, the read and the covered
// count one cut: everything announced so far is in the read, and everything
// announced later lands in the mailbox.
func (m *monitor) rebuildLocked() {
	m.barrier.Lock()
	m.drainPending()
	_, te, _ := m.table.TimeSpan()
	ts := max(te-m.window, 0)
	recs := m.table.RecordsInRange(ts, te)
	m.covered = m.table.Len()
	m.barrier.Unlock()

	// Raw sequences, not pieces over slabs: advanceLocked splices records
	// into them. Every sequence is capped, so its appends copy out of the
	// shared arena. Each object's records are all new to it.
	w := iupt.GroupSequences(recs)
	m.objs = make([]*liveObject, len(w.OIDs))
	for i, oid := range w.OIDs {
		m.objs[i] = newLiveObject(oid, w.Seqs[i])
	}
	m.dirty = append(m.dirty[:0], m.objs...)
	m.ts, m.te, m.built = ts, te, true
	m.stats = m.recomputeLocked()
}

// advanceLocked slides the window forward to the latest timestamp of recs,
// the drained mailbox, and splices them in, dirtying only the objects whose
// visible records changed. recs are exactly the records appended since the
// state last covered the table, in table order. The horizon never decreases
// (it is the maximum of the old one and the drained timestamps), so neither
// does the window start, and the two sources of change are each one-sided:
//
//   - records leaving the window are a prefix of their object's retained
//     sequence (sequences are time-ordered) and are trimmed off;
//   - drained records inside the new window are spliced in at their
//     canonical position (after retained same-timestamp records — arrival
//     order, exactly where a fresh stable sort would put them); records
//     behind the window are dropped because no later window reaches back to
//     them.
//
// Objects untouched by both keep their sequences — provably equal to a fresh
// fetch — and their summaries. Only dirty objects are stepped. The object
// list stays ascending: a new object is inserted at its place, a vanished
// one is dropped, and the dirty list is collected in the same pass.
func (m *monitor) advanceLocked(recs []iupt.Record) {
	m.covered += len(recs)
	te := m.te
	for _, rec := range recs {
		te = max(te, rec.T)
	}
	ts := max(te-m.window, 0)

	// Trim leaving records. An object has leaving records only if its
	// retained sequence starts before the new window, so the scan touches
	// exactly the objects the slide invalidates.
	if ts > m.ts {
		for _, o := range m.objs {
			lo := 0
			for lo < len(o.seq) && o.seq[lo].T < ts {
				lo++
			}
			if lo > 0 {
				o.trim(lo)
			}
		}
	}

	// Splice the drained records that fall in the window, in table order.
	for _, rec := range recs {
		if rec.T >= ts {
			m.object(rec.OID).splice(rec)
		}
	}

	m.dirty = m.dirty[:0]
	kept := m.objs[:0]
	for _, o := range m.objs {
		if len(o.seq) == 0 {
			continue // every record left: the object leaves the window
		}
		kept = append(kept, o)
		if o.dirty {
			m.dirty = append(m.dirty, o)
		}
	}
	clear(m.objs[len(kept):])
	m.objs = kept

	m.ts, m.te = ts, te
	m.stats = m.recomputeLocked()
}

// object returns the window's object oid, inserting an empty one at its
// place in the ascending list when the window does not hold it yet.
func (m *monitor) object(oid iupt.ObjectID) *liveObject {
	i, ok := slices.BinarySearchFunc(m.objs, oid, func(o *liveObject, oid iupt.ObjectID) int { return cmp.Compare(o.oid, oid) })
	if !ok {
		m.objs = slices.Insert(m.objs, i, newLiveObject(oid, nil))
	}
	return m.objs[i]
}

// spliceRecord inserts tss into the time-ordered seq at its canonical
// position — after every retained entry with the same or earlier timestamp
// — and returns the sequence and that position. The mailbox is in table
// order, so repeated splices of equal timestamps land in arrival order —
// exactly the stable-sort order of a fresh fetch.
func spliceRecord(seq iupt.Sequence, tss iupt.TimedSampleSet) (iupt.Sequence, int) {
	pos := len(seq)
	for pos > 0 && seq[pos-1].T > tss.T {
		pos--
	}
	seq = append(seq, iupt.TimedSampleSet{})
	copy(seq[pos+1:], seq[pos:])
	seq[pos] = tss
	return seq, pos
}

// recomputeLocked steps the dirty objects (ascending) and returns the
// evaluation's stats, the dirty objects' work merged in ascending order as
// the presence oracle merges it, over the oracle's fan-out (inRanges).
// Untouched objects keep their summaries.
func (m *monitor) recomputeLocked() Stats {
	dirty := m.dirty
	workers := m.eng.workersFor(len(dirty))
	st := Stats{ObjectsTotal: len(m.objs), Workers: workers}
	if len(dirty) == 0 {
		return st
	}
	m.eng.inRanges(len(dirty), workers, func(_, lo, hi int, scr *summarizeScratch) {
		for _, o := range dirty[lo:hi] {
			o.step(m.eng, m.mask, scr)
		}
	})
	for _, o := range dirty {
		o.dirty = false
		if o.sum != nil { // else pruned by PSL∩Q
			st.addObject(o.sum, o.fellBack, len(o.seq), len(o.red))
		}
	}
	clear(m.dirty) // the list is rebuilt next tick: do not pin dropped objects
	m.dirtyTotal += int64(len(dirty))
	return st
}

// rerankLocked re-ranks the window from the retained summaries: each becomes
// a presence row over the query set, fed in canonical ascending object order
// to a one-member finisher — the same additions, in the same order, and the
// same ranking as a from-scratch evaluation. Caller holds m.mu.
func (m *monitor) rerankLocked() {
	q := Query{Kind: KindTopK, K: m.k, SLocs: m.query}
	// The query set was validated by Subscribe and is its own column list.
	fin, _ := m.eng.newFinisher([]Query{q}, []int{0}, m.query)
	for _, o := range m.objs {
		if o.sum == nil {
			continue // pruned by PSL∩Q: contributes nothing, as everywhere else
		}
		m.eng.presenceRow(m.row, o.sum, m.query)
		fin.add(o.oid, m.row)
	}
	var out [1]*Response
	fin.finish(m.stats, out[:])
	m.results = out[0].Results
}
