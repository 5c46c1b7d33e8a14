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
// asked over the window, and the answer of the last search over them
// (rankIndex, one slot). They are pure functions of the reductions, the query
// set in the caller's order and, for the answer, k, so the same identity
// proves them and they are never invalidated either: the slot answers only
// the question (query set in caller order, k) it was built for, and a moved
// identity stores a new entry, whose slot is empty.
//
// A hit returns the stored window and memo themselves, not copies: they are
// shared by every query over the window, so consumers treat the sequences,
// reductions and summaries as read-only.
//
// An entry holds sources, not decoded sealed sequences: per object its pieces
// over the engine's slabs (slab.go) — the stored runs the window contains
// whole — and its raw records: the runs the window cuts or a seam may join,
// decoded, and its head records. Its reductions share the whole runs' sets
// with the slabs, which are counted once, apart from the entries
// (CacheStats.SlabBytes).
//
// Eviction is a two-generation clock: inserts go to the current generation;
// when it fills, it becomes the previous generation and a fresh one starts.
// Hits in the previous generation promote the entry. Live entries are bounded
// by 2× DefaultWindowCacheCapacity.
//
// Admission keeps windows asked once from rotating a full cache. Until the
// cache first fills — no generation has rotated yet — every window is
// stored: storing it evicts nothing, so traffic that fits the cache is kept
// on its first sighting. From then on a window the cache does not hold is
// stored only when its key was sighted recently; otherwise the key is
// recorded as sighted. The doorkeeper is a two-generation set of such keys,
// each generation at most doorkeeperScale× the capacity, so what it admits
// is a window asked again within about doorkeeperScale·cap other unadmitted
// windows after the cache is full. A key whose stored entry merely has a
// stale identity is re-stored without the check.
//
// A window the cache does not keep — not admitted, or the cache bypassed
// (Query.DisableCache, Naive) — is private to the one evaluation that built
// it: its entry has no memo, and its columns, pieces, decoded records and
// the reductions computed over them live in pooled memory (recycler) that
// the evaluation hands back in one release after its last read, so a window
// nobody keeps costs neither heap nor collector after its query. A private
// window is read over slabs like any other: slabs are storage, not cache, so
// a bypassed query reads them and may build them. A private window that went
// through the cache still counts as a window miss, and each object it
// summarizes as a presence miss; a bypassed one counts in neither. All
// methods are safe for concurrent use.
type windowCache struct {
	mu   sync.Mutex
	cap  int
	cur  map[windowKey]*windowEntry
	prev map[windowKey]*windowEntry
	// The doorkeeper: keys sighted but not admitted, two generations.
	seen, seenPrev map[windowKey]struct{}

	hits, misses       atomic.Int64 // windows served / materialized
	objHits, objMisses atomic.Int64 // summaries served from a memo / computed
}

// doorkeeperScale sizes a doorkeeper generation in cache capacities. It is
// not a measured sizing: no benchmark workload asks a window again within
// that reach once the cache is full.
const doorkeeperScale = 4

// windowKey identifies one query window on one table. The table pointer is
// part of the key: window identities are only comparable within one table.
type windowKey struct {
	table *iupt.Table
	ts    iupt.Time
	te    iupt.Time
}

type windowEntry struct {
	id  iupt.WindowIdentity // of the snapshot win was built from
	win window
	// bytes estimates the entry's live size: the window (windowBytes) plus
	// every value its memo stores (objectMemo.put, memoBytes).
	bytes atomic.Int64
	memo  objectMemo // aligned with win; nil for a private entry
	// rank is Best-First's index over the window for the last query set that
	// searched it, with the last answer a search over it found. Its trees
	// are immutable once stored and it is replaced whole, so concurrent
	// searches with different query sets each keep the one they loaded or
	// built; its answer is replaced whole too. The slot answers only the
	// question (query set in caller order, k) it was built for, under the
	// window's identity.
	rank atomic.Pointer[rankIndex]
	// rec is a private entry's pooled memory, handed back by release; nil
	// for an entry the cache keeps.
	rec *recycler
	// counted is set when the window went through the cache: its lookups
	// count in Stats and CacheStats, kept or not.
	counted bool
}

// release hands a private entry's memory back once nothing reads its window
// or the reductions computed over it; a kept entry's is the cache's.
func (en *windowEntry) release() { en.rec.release() }

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
// beats a bare reduction, and any value beats none. It returns what the store
// adds to the window's size estimate: memoBytes of v less that of the value
// it replaced, 0 when it stored nothing.
func (m objectMemo) put(i int, v *memoized) int64 {
	for {
		old := m[i].Load()
		if old != nil && (old.sum != nil || v.sum == nil) {
			return 0
		}
		if m[i].CompareAndSwap(old, v) {
			return memoBytes(v) - memoBytes(old)
		}
	}
}

// DefaultWindowCacheCapacity is the per-generation entry cap of the window
// cache. Entries are whole materialized windows, so the cap is small.
const DefaultWindowCacheCapacity = 64

func newWindowCache() *windowCache {
	return &windowCache{cap: DefaultWindowCacheCapacity, cur: make(map[windowKey]*windowEntry), seen: make(map[windowKey]struct{})}
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

// admit decides whether a materialization of a window the cache does not
// hold is to be stored: yes until the cache first fills or when the key was
// sighted recently, else the sighting is recorded.
func (c *windowCache) admit(key windowKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prev == nil && len(c.cur) < c.cap {
		return true
	}
	_, inCur := c.seen[key]
	_, inPrev := c.seenPrev[key]
	if inCur || inPrev {
		delete(c.seen, key)
		delete(c.seenPrev, key)
		return true
	}
	if len(c.seen) >= doorkeeperScale*c.cap {
		c.seenPrev, c.seen = c.seen, make(map[windowKey]struct{}, len(c.seen))
	}
	c.seen[key] = struct{}{}
	return false
}

// store inserts a freshly materialized window under the identity of the
// snapshot it was read from, replacing whatever the key held.
func (c *windowCache) store(key windowKey, id iupt.WindowIdentity, w window) *windowEntry {
	en := &windowEntry{
		id:      id,
		win:     w,
		memo:    make(objectMemo, len(w.OIDs)),
		counted: true,
	}
	en.bytes.Store(windowBytes(w))
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
// ctx.Err(). The caller hands the entry back with release after its last read
// of the window and of what it computed over it.
//
// One call into the table both revalidates a stored entry's identity and,
// when it no longer holds, rematerializes the window over slabs together with
// the identity of that very snapshot (readWindow), which is stored with it.
// The returned entry is shared across queries — callers must treat its window
// and memo values as read-only, which every consumer in this package does. A
// window the cache does not admit, or every window with the cache bypassed
// (Query.DisableCache), is private instead (privateEntry); only the one that
// went through the cache counts as a window miss.
func (e *Engine) window(ctx context.Context, table *iupt.Table, ts, te iupt.Time) (*windowEntry, error) {
	wc := e.cache
	if wc == nil {
		return e.privateEntry(ctx, table, ts, te)
	}
	key := windowKey{table: table, ts: ts, te: te}
	en := wc.get(key)
	if en == nil && !wc.admit(key) {
		en, err := e.privateEntry(ctx, table, ts, te)
		if err != nil {
			return nil, err
		}
		wc.misses.Add(1)
		en.counted = true
		return en, nil
	}
	var known *iupt.WindowIdentity
	if en != nil {
		known = &en.id
	}
	w, id, err := e.readWindow(ctx, table, ts, te, known, nil)
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

// privateEntry materializes [ts, te] over slabs into an entry no cache holds,
// for one evaluation: its columns, pieces and decoded records live in a
// pooled recycler, and with no memo the oracle carves every reduction from
// pooled output arenas; release hands all of it back. Its rank slot dies
// with it.
func (e *Engine) privateEntry(ctx context.Context, table *iupt.Table, ts, te iupt.Time) (*windowEntry, error) {
	rec := &recycler{mem: winMemPool.Get().(*winMem)}
	w, _, err := e.readWindow(ctx, table, ts, te, nil, rec)
	if err != nil {
		rec.release()
		return nil, err
	}
	return &windowEntry{win: *w, rec: rec}, nil
}

// windowBytes estimates the live memory pinned by one materialized window: per
// object its id and sequence header in the window's columns and its memo slot
// (4 + 24 + 8), per raw record its TimedSampleSet header, per sample its
// payload, and over slabs per object its piece list header (24) and per piece
// 16. The slabs the pieces name are counted once, in CacheStats.SlabBytes.
func windowBytes(w window) int64 {
	b := 36 * int64(len(w.OIDs))
	for _, seq := range w.Seqs {
		for _, ts := range seq {
			b += 32 + 16*int64(len(ts.Samples))
		}
	}
	for _, ps := range w.pieces {
		b += 24 + 16*int64(len(ps))
	}
	return b
}

// memoBytes estimates the live memory one memo value pins, charged to its
// window when it is stored (objectMemo.put), less the charge of the value it
// replaces: the value itself (24); its reduction — the Reduction (56), per
// reduced set its header (24) and per sample it owns its payload (16: the
// sets it shares with a slab are the slab's), per PSL 4; its summary — the
// ObjectSummary (64) and per PassMass entry 16.
func memoBytes(m *memoized) int64 {
	if m == nil {
		return 0
	}
	b := int64(24)
	if r := m.red; r != nil {
		b += 56 + 24*int64(len(r.Seq)) + 4*int64(len(r.PSLs)) - 16*int64(r.shared)
		for _, set := range r.Seq {
			b += 16 * int64(len(set))
		}
	}
	if sum := m.sum; sum != nil {
		b += 64 + 16*int64(len(sum.PassMass))
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
	// Coalesced+Flights queries answered, only Flights did any work. A query
	// with Query.DisableCoalescing counts in neither.
	Coalesced int64
	Flights   int64
	// WindowEntries, WindowHits, WindowMisses and WindowBytes describe the
	// cached windows themselves: whole materialized query windows pinned by
	// the table's identity for them (WindowBytes estimates their sequences,
	// the reductions and summaries in their memos, and their rank indexes).
	// A window hit skips rematerializing records out of the table entirely
	// (the storage layer's materialized_records counter stays flat); a miss
	// the cache does not admit is counted but not kept.
	WindowEntries int
	WindowHits    int64
	WindowMisses  int64
	WindowBytes   int64
	// SlabBytes estimates the slabs built over sealed partitions that are
	// still in their table: per sealed record its position and its share of
	// Algorithm 1's stored runs (slab.go). Windows share them; WindowBytes
	// does not count them.
	SlabBytes int64
}

// CacheStats returns a snapshot of the engine's cache and request coalescer.
func (e *Engine) CacheStats() CacheStats {
	var out CacheStats
	c := e.cache
	out.Hits, out.Misses = c.objHits.Load(), c.objMisses.Load()
	out.WindowHits, out.WindowMisses = c.hits.Load(), c.misses.Load()
	c.mu.Lock()
	out.WindowEntries = len(c.cur) + len(c.prev)
	for _, gen := range []map[windowKey]*windowEntry{c.cur, c.prev} {
		for _, en := range gen {
			out.WindowBytes += en.bytes.Load()
			if ri := en.rank.Load(); ri != nil {
				out.WindowBytes += ri.bytes.Load()
			}
			for i := range en.memo {
				if en.memo.get(i) != nil {
					out.Entries++
				}
			}
		}
	}
	c.mu.Unlock()
	out.SlabBytes = e.slabs.bytes()
	out.Coalesced, out.Flights = e.Counts()
	return out
}
