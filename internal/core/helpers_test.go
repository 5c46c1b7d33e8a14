package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// The positional, context-free forms of Do the in-package tests were written
// against. They were exported Engine methods until PR 19; production code and
// external test packages call Do.

func (e *Engine) TopK(table *iupt.Table, q []indoor.SLocID, k int, ts, te iupt.Time, algo Algorithm) ([]Result, Stats, error) {
	return ranked(e.Do(context.Background(), table, Query{Kind: KindTopK, Algorithm: algo, K: k, Ts: ts, Te: te, SLocs: q}))
}

func (e *Engine) TopKDensity(table *iupt.Table, q []indoor.SLocID, k int, ts, te iupt.Time) ([]Result, Stats, error) {
	return ranked(e.Do(context.Background(), table, Query{Kind: KindDensity, K: k, Ts: ts, Te: te, SLocs: q}))
}

// uncached returns q with the window cache bypassed: no window entry, no
// memo, no rank slot. Over sealed partitions it still reads slabs; the
// from-scratch reference is the same question over flatCopy.
func uncached(q Query) Query {
	q.DisableCache = true
	return q
}

// flatCopy returns tb's records, in canonical order, on an in-memory table
// with no sealed part, so every object of every window over it takes
// reduceAt's plain loop: the from-scratch reference the differentials over
// sealed partitions compare with.
func flatCopy(tb *iupt.Table) *iupt.Table {
	flat := iupt.NewTable()
	if lo, hi, ok := tb.TimeSpan(); ok {
		flat.Append(tb.RecordsInRange(lo, hi)...)
	}
	return flat
}

func ranked(resp *Response, err error) ([]Result, Stats, error) {
	if err != nil {
		return nil, Stats{}, err
	}
	return resp.Results, resp.Stats, nil
}

// Flow maps a validation error (an unknown S-location) to 0.
func (e *Engine) Flow(table *iupt.Table, q indoor.SLocID, ts, te iupt.Time) (float64, Stats) {
	resp, err := e.Do(context.Background(), table, Query{Kind: KindFlow, SLocs: []indoor.SLocID{q}, Ts: ts, Te: te})
	if err != nil {
		return 0, Stats{}
	}
	return resp.Flow, resp.Stats
}

func (e *Engine) Presence(table *iupt.Table, q indoor.SLocID, oid iupt.ObjectID, ts, te iupt.Time) float64 {
	resp, err := e.Do(context.Background(), table, Query{Kind: KindPresence, SLocs: []indoor.SLocID{q}, OID: oid, Ts: ts, Te: te})
	if err != nil {
		return 0
	}
	return resp.Flow
}

// intraMerge folds samples whose P-locations are equivalent (identical
// Cells(p), §3.1.2) into one sample at the class representative — the
// smallest member id — with the summed probability (Algorithm 1 lines
// 14-21), into a fresh slice. It runs the reduction's own intraMergeInto;
// the output preserves first-appearance order of representatives.
func (e *Engine) intraMerge(x iupt.SampleSet) iupt.SampleSet {
	scr := e.getScratch()
	defer e.putScratch(scr)
	return e.intraMergeInto(x, make(iupt.SampleSet, 0, len(x)), scr)
}

// liveTable is a table with its owner's ingest lock — the barrier every feed
// on it reads under — standing in for tkplq.System in the in-package tests.
type liveTable struct {
	eng *Engine
	tb  *iupt.Table
	mu  sync.Mutex
}

func (l *liveTable) cfg() SubscribeConfig { return SubscribeConfig{Table: l.tb, Barrier: &l.mu} }

// ingest appends a batch and announces it under the lock, as System.Ingest
// does.
func (l *liveTable) ingest(recs ...iupt.Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rec := range recs {
		l.tb.Append(rec)
	}
	l.eng.NotifyAppend(l.tb, recs)
}

// monitor registers a monitor on the table the way Subscribe's acquire does,
// minus its key, its subscription and its eval loop: the test decides when
// the monitor evaluates, by calling current.
func (l *liveTable) monitor(q []indoor.SLocID, k int, window iupt.Time) *monitor {
	m := l.eng.newMonitor(l.cfg(), canonicalSLocs(q), k, window)
	l.eng.mons.mu.Lock()
	l.eng.mons.all = append(l.eng.mons.all, m)
	l.eng.mons.mu.Unlock()
	return m
}

// dropped reads the number of updates sub has lost to conflation so far.
func dropped(sub *Subscription) int64 {
	sub.mon.mu.Lock()
	defer sub.mon.mu.Unlock()
	return sub.dropped
}

// current brings the monitor up to the data and returns what a subscriber
// would be sent.
func current(m *monitor) Update {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.refreshLocked()
	return m.updateLocked()
}

// awaitUpdate receives from the feed until an update satisfies ok, failing
// the test if none does within a bounded time.
func awaitUpdate(t *testing.T, sub *Subscription, ok func(Update) bool) Update {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case u, open := <-sub.Updates():
			if !open {
				t.Fatal("feed closed while waiting for an update")
			}
			if ok(u) {
				return u
			}
		case <-deadline:
			t.Fatal("no matching update within 5s")
		}
	}
}
