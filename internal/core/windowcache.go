package core

import (
	"context"
	"sync"
	"sync/atomic"

	"tkplq/internal/iupt"
)

// windowCache is the engine's only cache. An entry is one materialized query
// window — the iupt.Window of [ts, te] on one table — plus a memo of what
// queries have computed over it, per object position: the Algorithm 1 reduction
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
// A hit returns the stored window and memo themselves, not copies: they are
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
	id    iupt.WindowIdentity // of the snapshot win was built from
	win   iupt.Window
	bytes int64      // estimated live size of win
	memo  objectMemo // aligned with win
	// rank is Best-First's index over the window for the last query set that
	// searched it. Immutable once stored and replaced whole, so concurrent
	// searches with different query sets each keep the one they loaded or
	// built: the slot decides what the next search finds, never an answer.
	rank atomic.Pointer[rankIndex]
}

// objectMemo holds the per-object results computed over one cached window:
// slot i is the window's i-th object. Queries fill it side by side without a
// lock: a stored value is immutable, and a slot only ever moves up — empty,
// reduction-only, summarized — by compare-and-swap.
type objectMemo []atomic.Pointer[memoized]

// memoized is one object's slot value. sum is nil when only the reduction has
// been computed so far (the object was pruned by the query's PSL∩Q check, or
// Best-First never promoted it to a candidate); a later put upgrades the slot.
type memoized struct {
	red      *Reduction
	sum      *ObjectSummary
	fellBack bool
}

// get returns slot i's value, nil while it is empty.
func (m objectMemo) get(i int) *memoized { return m[i].Load() }

// put stores v in slot i unless the slot already holds as much: a summary
// beats a bare reduction, and any value beats none.
func (m objectMemo) put(i int, v *memoized) {
	for {
		old := m[i].Load()
		if old != nil && (old.sum != nil || v.sum == nil) {
			return
		}
		if m[i].CompareAndSwap(old, v) {
			return
		}
	}
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
			c.insertLocked(key, en)
		}
	}
	return en
}

// store inserts a freshly materialized window under the identity of the
// snapshot it was read from, replacing whatever the key held.
func (c *windowCache) store(key windowKey, id iupt.WindowIdentity, w iupt.Window) *windowEntry {
	en := &windowEntry{
		id:    id,
		win:   w,
		bytes: windowBytes(w),
		memo:  make(objectMemo, len(w.OIDs)),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, en)
	return en
}

// insertLocked makes en the key's one entry. A superseded entry goes, from
// whichever generation holds it — a stale copy left in prev would pin a whole
// materialized window, and count twice in CacheStats — and replacing a key
// already in cur takes no new slot, so only a new key can rotate a
// generation.
func (c *windowCache) insertLocked(key windowKey, en *windowEntry) {
	delete(c.prev, key)
	if _, ok := c.cur[key]; !ok && len(c.cur) >= c.cap {
		c.prev = c.cur
		c.cur = make(map[windowKey]*windowEntry, c.cap/4)
	}
	c.cur[key] = en
}

// window fetches the per-object positioning sequences of [ts, te] as the
// cache entry holding them, whose memo and rank index queries over the window
// share, position for position. A canceled ctx aborts the fetch and returns
// ctx.Err().
//
// With the cache bypassed (Options.DisableCache, Query.DisableCache) the
// window is materialized afresh into an entry no cache holds: its memo is nil,
// so it shares nothing, and its rank slot dies with it. Otherwise one call
// into the table both revalidates the stored entry's identity and, when it no
// longer holds, rematerializes the window together with the identity of that
// very snapshot (iupt.Table.Window), which is stored with it. The returned
// entry is shared across queries — callers must treat its window and memo
// values as read-only, which every consumer in this package does.
func (e *Engine) window(ctx context.Context, table *iupt.Table, ts, te iupt.Time) (*windowEntry, error) {
	wc := e.cache
	if wc == nil {
		w, _, err := table.Window(ctx, ts, te, nil)
		if err != nil {
			return nil, err
		}
		return &windowEntry{win: *w}, nil
	}
	key := windowKey{table: table, ts: ts, te: te}
	en := wc.get(key)
	var known *iupt.WindowIdentity
	if en != nil {
		known = &en.id
	}
	w, id, err := table.Window(ctx, ts, te, known)
	if err != nil {
		return nil, err
	}
	if w == nil { // the stored identity still names the window
		wc.hits.Add(1)
		return en, nil
	}
	wc.misses.Add(1)
	return wc.store(key, id, *w), nil
}

// windowBytes estimates the live memory pinned by one materialized window: per
// object its id and sequence header in the window's columns and its memo slot
// (4 + 24 + 8), per record its TimedSampleSet header, per sample its payload.
func windowBytes(w iupt.Window) int64 {
	b := 36 * int64(len(w.OIDs))
	for _, seq := range w.Seqs {
		for _, ts := range seq {
			b += 32 + 16*int64(len(ts.Samples))
		}
	}
	return b
}

// CacheStats is a snapshot of the engine's work-sharing state: the window
// cache and the query-level request coalescer, exposed via Engine.CacheStats.
type CacheStats struct {
	// Entries is the number of filled per-object memo slots across all cached
	// windows.
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
				for i := range en.memo {
					if en.memo.get(i) != nil {
						out.Entries++
					}
				}
			}
		}
		c.mu.Unlock()
	}
	out.Coalesced, out.Flights = e.Counts()
	return out
}
