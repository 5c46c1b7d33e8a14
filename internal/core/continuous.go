package core

import (
	"context"
	"maps"
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
// Evaluation is incremental. The monitor retains the per-object positioning
// sequences and presence summaries of its current window; an ingested record
// perturbs exactly one object's sequence (spliced in at its canonical
// position — no table scan), and a window slide touches only the objects
// whose records enter or leave the window. Only the dirty
// objects' reductions and summaries are recomputed, through the same
// presence oracle the one-shot queries use (without the engine cache: the
// retained summaries are the feed's own). The cheap
// parts of an evaluation are repeated in full precisely because they must
// be: every retained summary is fed, as a presence row in canonical ascending
// object order, to the same finisher that sums and ranks every one-shot query
// (float addition is non-associative, so delta-updating a sum would break the
// determinism contract). The result of every incremental evaluation is
// therefore bit-identical to a from-scratch evaluation of the same window, at
// every worker count, for all three algorithms.
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
	query    []indoor.SLocID        // canonical (ascending) query set
	querySet map[indoor.SLocID]bool // for PSL∩Q pruning in the oracle
	k        int
	window   iupt.Time
	barrier  sync.Locker // serializes the build's table read with the owner's appends
	id       uint64      // registry order, for deterministic MonitorStats
	refs     int         // live subscriptions; guarded by eng.mons.mu
	key      monitorKey  // coalescing key, zero for a private monitor; guarded by eng.mons.mu

	// pendMu guards the notification mailbox. It is a leaf lock: enqueue runs
	// under the owner's ingest lock and must never wait on an evaluation.
	pendMu   sync.Mutex
	pending  []iupt.Record // announced records the state does not reflect, in table order
	observed int
	wake     chan struct{} // cap 1; kicks the subscription eval loop

	// mu guards the window state, results and subscriber set.
	mu       sync.Mutex
	built    bool
	ts, te   iupt.Time
	covered  int // table record count the window state reflects
	seqs     map[iupt.ObjectID]iupt.Sequence
	sums     map[iupt.ObjectID]*ObjectSummary // nil = pruned by PSL∩Q
	oids     []iupt.ObjectID                  // ascending; the keys of seqs
	results  []Result
	stats    Stats
	seq      uint64 // update sequence number, bumped per pushed change
	subs     map[int]*Subscription
	nextSub  int
	loopStop chan struct{} // non-nil while the eval loop runs
	closed   bool

	evals      int64 // incremental evaluations performed
	dirtyTotal int64 // object summaries recomputed across them
	pushed     int64 // ranking changes delivered to subscribers
}

// newMonitor assembles a monitor; query must be canonical and validated.
func (e *Engine) newMonitor(cfg SubscribeConfig, query []indoor.SLocID, k int, window iupt.Time) *monitor {
	m := &monitor{
		eng:      e,
		table:    cfg.Table,
		query:    query,
		querySet: make(map[indoor.SLocID]bool, len(query)),
		k:        k,
		window:   window,
		barrier:  cfg.Barrier,
		wake:     make(chan struct{}, 1),
		subs:     make(map[int]*Subscription),
	}
	if m.barrier == nil {
		m.barrier = &sync.Mutex{}
	}
	for _, s := range query {
		m.querySet[s] = true
	}
	return m
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

// shutdown stops the eval loop. Its one caller is the registry's release of
// the last reference, and a subscription detaches before it releases, so
// there is never a subscriber left to close here.
func (m *monitor) shutdown() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	if m.loopStop != nil {
		close(m.loopStop)
		m.loopStop = nil
	}
}

// hasPending reports whether the mailbox holds unprocessed records.
func (m *monitor) hasPending() bool {
	m.pendMu.Lock()
	defer m.pendMu.Unlock()
	return len(m.pending) > 0
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
	switch {
	case !m.built:
		m.rebuildLocked()
	case m.hasPending():
		m.advanceLocked()
	default:
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
	// shared arena.
	w := iupt.GroupSequences(recs)
	m.seqs = w.Map()
	m.oids = w.OIDs
	m.sums = make(map[iupt.ObjectID]*ObjectSummary, len(m.seqs))
	m.ts, m.te, m.built = ts, te, true
	m.stats = m.recomputeLocked(m.oids)
}

// advanceLocked slides the window forward to the latest timestamp in the
// mailbox and splices the mailbox in, dirtying only the objects whose visible
// records changed. The mailbox holds exactly the records appended since the
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
// fetch — and their summaries. Only dirty objects are re-reduced and
// re-summarized.
func (m *monitor) advanceLocked() {
	recs := m.drainPending()
	m.covered += len(recs)
	te := m.te
	for _, rec := range recs {
		te = max(te, rec.T)
	}
	ts := max(te-m.window, 0)
	dirty := make(map[iupt.ObjectID]bool)

	// Trim leaving records. An object has leaving records only if its
	// retained sequence starts before the new window, so the scan touches
	// exactly the objects the slide invalidates.
	if ts > m.ts {
		for _, oid := range m.oids {
			seq := m.seqs[oid]
			lo := 0
			for lo < len(seq) && seq[lo].T < ts {
				lo++
			}
			if lo == 0 {
				continue
			}
			dirty[oid] = true
			if lo == len(seq) {
				delete(m.seqs, oid)
				continue
			}
			// Reslice: the sequence is capped or the monitor's own, so a later
			// append never writes into an array another sequence reads.
			m.seqs[oid] = seq[lo:]
		}
	}

	// Splice the drained records that fall in the window, in table order.
	for _, rec := range recs {
		if rec.T < ts {
			continue
		}
		dirty[rec.OID] = true
		m.seqs[rec.OID] = spliceRecord(m.seqs[rec.OID], iupt.TimedSampleSet{T: rec.T, Samples: rec.Samples})
	}

	// Refresh the ascending object list and drop state of vanished objects.
	m.oids = slices.Sorted(maps.Keys(m.seqs))
	dirtyList := make([]iupt.ObjectID, 0, len(dirty))
	for oid := range dirty {
		if _, ok := m.seqs[oid]; ok {
			dirtyList = append(dirtyList, oid)
		} else {
			delete(m.sums, oid)
		}
	}
	slices.Sort(dirtyList)

	m.ts, m.te = ts, te
	m.stats = m.recomputeLocked(dirtyList)
}

// spliceRecord inserts tss into the time-ordered seq at its canonical
// position: after every retained entry with the same or earlier timestamp.
// The mailbox is in table order, so repeated splices of equal timestamps
// land in arrival order — exactly the stable-sort order of a fresh fetch.
func spliceRecord(seq iupt.Sequence, tss iupt.TimedSampleSet) iupt.Sequence {
	pos := len(seq)
	for pos > 0 && seq[pos-1].T > tss.T {
		pos--
	}
	seq = append(seq, iupt.TimedSampleSet{})
	copy(seq[pos+1:], seq[pos:])
	seq[pos] = tss
	return seq
}

// recomputeLocked re-reduces and re-summarizes the dirty objects (ascending)
// through the presence oracle, as a private window of their own, and returns
// the evaluation's stats. Untouched objects keep their summaries. The oracle
// gets no memo: the dirty sequences are the monitor's private spliced state,
// not a window the table can vouch for, and the summaries a later tick could
// reuse are the ones retained here already — so the reductions are carved
// from pooled memory and handed back when the recompute ends.
func (m *monitor) recomputeLocked(dirtyList []iupt.ObjectID) Stats {
	st := Stats{ObjectsTotal: len(m.seqs), Workers: 1}
	if len(dirtyList) > 0 {
		dirty := &windowEntry{win: window{Window: iupt.Window{OIDs: dirtyList, Seqs: make([]iupt.Sequence, len(dirtyList))}}, rec: new(recycler)}
		for i, oid := range dirtyList {
			dirty.win.Seqs[i] = m.seqs[oid]
		}
		oracle := newOracle(m.eng, dirty, 0, len(dirtyList), m.querySet)
		// Background ctx: ensureAll only fails on ctx cancellation.
		_ = oracle.ensureAll(context.Background(), true)
		for i, oid := range dirtyList {
			m.sums[oid] = oracle.summaries[i]
		}
		dirty.release() // only the summaries are kept
		ost := oracle.finishStats()
		ost.ObjectsTotal = len(m.seqs)
		st = ost
		m.dirtyTotal += int64(len(dirtyList))
	}
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
	row := make([]float64, len(m.query))
	for _, oid := range m.oids {
		sum := m.sums[oid]
		if sum == nil {
			continue // pruned by PSL∩Q: contributes nothing, as everywhere else
		}
		m.eng.presenceRow(row, sum, m.query)
		fin.add(oid, row)
	}
	var out [1]*Response
	fin.finish(m.stats, out[:])
	m.results = out[0].Results
}
