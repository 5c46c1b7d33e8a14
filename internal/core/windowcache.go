package core

import (
	"context"
	"sync"
	"sync/atomic"

	"tkplq/internal/iupt"
)

// windowCache is the engine's only cache. An entry is one materialized query
// window — the per-object sequences of [ts, te] on one table — plus a memo of
// what queries have computed over it, per object: the Algorithm 1 reduction
// and the Equation 1 presence summary (which answers Presence(q, o) for
// *every* S-location q in O(1), so one memo slot serves all locations of all
// queries). Both are pure functions of the object's records inside the
// window, so the one thing a hit must prove is "these are the same records",
// and the one proof is the table's identity for the window
// (iupt.WindowIdentity): the overlapping sealed partitions in seal order plus
// the number of head records inside. On one table an equal identity implies
// byte-identical contents, and a superseded identity is never presented
// again — the argument lives with the type. Any change that could alter the
// answer — a record ingested into the window, a seal over it, a compaction
// under it — changes the identity and turns the lookup into a miss; stale
// entries then age out through the generations. Correctness never depends on
// that eviction, and nothing is ever invalidated.
//
// An entry also carries what Best-First builds from those reductions: the
// query R-tree RQ and the COUNT-aggregate R-tree RC of the last query set
// asked over the window (rankIndex, one slot). It is a pure function of the
// reductions and the query set, so the same identity proves it and it is
// never invalidated either: a moved identity stores a new entry, whose slot
// is empty.
//
// A hit returns the stored map and memo themselves, not copies: they are
// shared by every query over the window, so consumers treat the sequences,
// reductions and summaries as read-only.
//
// Eviction is a two-generation clock: inserts go to the current generation;
// when it fills, it becomes the previous generation and a fresh one starts.
// Hits in the previous generation promote the entry. Live entries are bounded
// by 2× DefaultWindowCacheCapacity. All methods are safe for concurrent use.
type windowCache struct {
	mu   sync.Mutex
	cap  int
	cur  map[windowKey]*windowEntry
	prev map[windowKey]*windowEntry

	hits, misses       atomic.Int64 // windows served / materialized
	objHits, objMisses atomic.Int64 // summaries served from a memo / computed
}

// windowKey identifies one query window on one table. The table pointer is
// part of the key: window identities are only comparable within one table.
type windowKey struct {
	table *iupt.Table
	ts    iupt.Time
	te    iupt.Time
}

type windowEntry struct {
	id    iupt.WindowIdentity // of the snapshot seqs was built from
	seqs  map[iupt.ObjectID]iupt.Sequence
	bytes int64 // estimated live size of seqs
	memo  objectMemo
	// rank is Best-First's index over the window for the last query set that
	// searched it. Immutable once stored and replaced whole, so concurrent
	// searches with different query sets each keep the one they loaded or
	// built: the slot decides what the next search finds, never an answer.
	rank atomic.Pointer[rankIndex]
}

// objectMemo returns the entry's memo; nil for the nil entry of an uncached
// window (Engine.window).
func (en *windowEntry) objectMemo() *objectMemo {
	if en == nil {
		return nil
	}
	return &en.memo
}

// objectMemo holds the per-object results computed over one cached window.
// Shard workers of one query and concurrent queries over the window fill it
// side by side; a slot's values are immutable once stored.
type objectMemo struct {
	mu sync.Mutex
	m  map[iupt.ObjectID]memoized
}

// memoized is one object's slot. sum may be nil when only the reduction has
// been computed so far (the object was pruned by the query's PSL∩Q check, or
// Best-First never promoted it to a candidate); a later put upgrades the slot
// in place.
type memoized struct {
	red      *Reduction
	sum      *ObjectSummary
	fellBack bool
}

func (m *objectMemo) get(oid iupt.ObjectID) (memoized, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.m[oid]
	return v, ok
}

func (m *objectMemo) put(oid iupt.ObjectID, v memoized) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v.sum == nil && m.m[oid].sum != nil {
		return // never downgrade a summarized slot to reduction-only
	}
	m.m[oid] = v
}

// DefaultWindowCacheCapacity is the per-generation entry cap of the window
// cache. Entries are whole materialized windows, so the cap is small.
const DefaultWindowCacheCapacity = 64

func newWindowCache() *windowCache {
	return &windowCache{cap: DefaultWindowCacheCapacity, cur: make(map[windowKey]*windowEntry)}
}

// get returns the entry stored for the window, current or not: the table
// decides whether its identity still holds (Engine.window).
func (c *windowCache) get(key windowKey) *windowEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	en, ok := c.cur[key]
	if !ok && c.prev != nil {
		if en, ok = c.prev[key]; ok {
			delete(c.prev, key)
			c.insertLocked(key, en)
		}
	}
	return en
}

// store inserts a freshly materialized window under the identity of the
// snapshot it was read from, replacing whatever the key held.
func (c *windowCache) store(key windowKey, id iupt.WindowIdentity, seqs map[iupt.ObjectID]iupt.Sequence) *windowEntry {
	en := &windowEntry{
		id:    id,
		seqs:  seqs,
		bytes: sequencesBytes(seqs),
		memo:  objectMemo{m: make(map[iupt.ObjectID]memoized, len(seqs))},
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, en)
	return en
}

func (c *windowCache) insertLocked(key windowKey, en *windowEntry) {
	if len(c.cur) >= c.cap {
		c.prev = c.cur
		c.cur = make(map[windowKey]*windowEntry, c.cap/4)
	}
	c.cur[key] = en
}

// window fetches the per-object positioning sequences of [ts, te] and the
// cache entry holding them, whose memo and rank index queries over the window
// share. A canceled ctx aborts the fetch and returns ctx.Err().
//
// With the cache bypassed (Options.DisableCache, Query.DisableCache) the
// window is materialized afresh and has no entry. Otherwise one call into the
// table both revalidates the stored entry's identity and, when it no longer
// holds, rematerializes the window together with the identity of that very
// snapshot (iupt.Table.Window), which is stored with it. The returned map and
// entry are shared across queries — callers must treat them as read-only,
// which every consumer in this package does.
func (e *Engine) window(ctx context.Context, table *iupt.Table, ts, te iupt.Time) (map[iupt.ObjectID]iupt.Sequence, *windowEntry, error) {
	wc := e.cache
	if wc == nil {
		seqs, _, err := table.Window(ctx, ts, te, nil)
		return seqs, nil, err
	}
	key := windowKey{table: table, ts: ts, te: te}
	en := wc.get(key)
	var known *iupt.WindowIdentity
	if en != nil {
		known = &en.id
	}
	seqs, id, err := table.Window(ctx, ts, te, known)
	if err != nil {
		return nil, nil, err
	}
	if seqs == nil { // the stored identity still names the window
		wc.hits.Add(1)
		return en.seqs, en, nil
	}
	wc.misses.Add(1)
	en = wc.store(key, id, seqs)
	return en.seqs, en, nil
}

// sequencesBytes estimates the live memory pinned by one materialized window:
// per-object map slot + sequence header, per-record TimedSampleSet header,
// per-sample payload.
func sequencesBytes(seqs map[iupt.ObjectID]iupt.Sequence) int64 {
	var b int64
	for _, seq := range seqs {
		b += 48 // map slot + slice header, rounded
		for _, ts := range seq {
			b += 32 + 16*int64(len(ts.Samples))
		}
	}
	return b
}

// CacheStats is a snapshot of the engine's work-sharing state: the window
// cache and the query-level request coalescer, exposed via Engine.CacheStats.
type CacheStats struct {
	// Entries is the number of live memoized per-object results across all
	// cached windows.
	Entries int
	// Hits and Misses count, over the engine's lifetime, one per object whose
	// presence summary a query asked for: served from a cached window's memo,
	// or computed.
	Hits, Misses int64
	// Coalesced counts queries over the engine's lifetime that were served
	// by joining a concurrent identical caller's in-flight evaluation, and
	// Flights counts the evaluations actually performed — so of
	// Coalesced+Flights queries answered, only Flights did any work. Both
	// stay 0 when Options.DisableCoalescing is set; the coalescer is
	// independent of the cache, so they are reported even when
	// Options.DisableCache zeroes every other field.
	Coalesced int64
	Flights   int64
	// WindowEntries, WindowHits, WindowMisses and WindowBytes describe the
	// cached windows themselves: whole materialized query windows pinned by
	// the table's identity for them (WindowBytes estimates their sequences
	// and rank indexes). A window hit skips rematerializing
	// records out of the table entirely (the storage layer's
	// materialized_records counter stays flat).
	WindowEntries int
	WindowHits    int64
	WindowMisses  int64
	WindowBytes   int64
}

// CacheStats returns a snapshot of the engine's cache and request coalescer.
// Fields of a disabled component are zero.
func (e *Engine) CacheStats() CacheStats {
	var out CacheStats
	if c := e.cache; c != nil {
		out.Hits, out.Misses = c.objHits.Load(), c.objMisses.Load()
		out.WindowHits, out.WindowMisses = c.hits.Load(), c.misses.Load()
		c.mu.Lock()
		out.WindowEntries = len(c.cur) + len(c.prev)
		for _, gen := range []map[windowKey]*windowEntry{c.cur, c.prev} {
			for _, en := range gen {
				out.WindowBytes += en.bytes
				if ri := en.rank.Load(); ri != nil {
					out.WindowBytes += ri.bytes
				}
				en.memo.mu.Lock()
				out.Entries += len(en.memo.m)
				en.memo.mu.Unlock()
			}
		}
		c.mu.Unlock()
	}
	out.Coalesced, out.Flights = e.Counts()
	return out
}
