package core

import (
	"math"
	"sync"

	"tkplq/internal/iupt"
)

// summaryCache is the engine's presence/interval cache. A cached entry keys
// on (object, interval fingerprint) — the fingerprint covers the object's raw
// positioning sequence inside one query window (record count, first and last
// timestamps, and a content hash) — and stores the query-independent outputs
// of the expensive per-object pipeline: the Algorithm 1 reduction and the
// Equation 1 presence summary (which answers Presence(q, o) for *every*
// S-location q in O(1), so one entry serves all locations of all queries).
//
// Two query windows that see the same records for an object (the common case
// for repeated queries and for a subscription's overlapping sliding windows) map
// to the same entry and skip reduction and summarization entirely. Hash
// collisions are harmless: every hit is verified against the stored sequence
// before use.
//
// Eviction is a two-generation clock: inserts go to the current generation;
// when it fills, it becomes the previous generation and a fresh one starts.
// Hits in the previous generation promote the entry. Live memory is bounded
// by 2× the configured capacity.
//
// All methods are safe for concurrent use; entries are immutable once stored.
type summaryCache struct {
	mu   sync.Mutex
	cap  int
	cur  map[cacheKey]*cacheEntry
	prev map[cacheKey]*cacheEntry

	hits, misses, invalidations int64
}

// cacheKey fingerprints one object's positioning sequence within a query
// window.
type cacheKey struct {
	oid   iupt.ObjectID
	n     int
	first iupt.Time
	last  iupt.Time
	hash  uint64
}

// cacheEntry stores the cached per-object results. sum may be nil when only
// the reduction has been computed so far (e.g. the object was pruned by the
// query's PSL∩Q check, or Best-First never promoted it to a candidate); a
// later store with the same key upgrades the entry in place.
type cacheEntry struct {
	seq      iupt.Sequence // retained for verification on hit
	red      *Reduction
	sum      *ObjectSummary
	fellBack bool
}

// DefaultCacheCapacity is the per-generation entry cap of the presence cache
// when Options.CacheCapacity is zero.
const DefaultCacheCapacity = 4096

func newSummaryCache(capacity int) *summaryCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &summaryCache{cap: capacity, cur: make(map[cacheKey]*cacheEntry)}
}

// FNV-1a constants for the sequence content hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// sequenceKey fingerprints seq for oid. seq must be non-empty.
func sequenceKey(oid iupt.ObjectID, seq iupt.Sequence) cacheKey {
	h := uint64(fnvOffset64)
	for _, ts := range seq {
		h = fnvMix(h, uint64(ts.T))
		h = fnvMix(h, uint64(len(ts.Samples)))
		for _, s := range ts.Samples {
			h = fnvMix(h, uint64(s.Loc))
			h = fnvMix(h, math.Float64bits(s.Prob))
		}
	}
	return cacheKey{
		oid:   oid,
		n:     len(seq),
		first: seq[0].T,
		last:  seq[len(seq)-1].T,
		hash:  h,
	}
}

// sequencesEqual reports bitwise equality of two positioning sequences.
// Aliased slices — the steady state when the sealed-window cache serves
// repeated windows, handing every query the same materialized sequences —
// short-circuit on pointer identity, so cache-hit verification is O(1)
// instead of O(sequence).
func sequencesEqual(a, b iupt.Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i].T != b[i].T || len(a[i].Samples) != len(b[i].Samples) {
			return false
		}
		for j := range a[i].Samples {
			if a[i].Samples[j] != b[i].Samples[j] {
				return false
			}
		}
	}
	return true
}

// lookup returns the entry for key after verifying it matches seq, or nil.
// The O(sequence) content verification runs outside the lock — entries are
// immutable once stored, so only the map accesses need the mutex and the
// worker pool never convoys on a long comparison.
func (c *summaryCache) lookup(key cacheKey, seq iupt.Sequence) *cacheEntry {
	c.mu.Lock()
	en, ok := c.cur[key]
	if !ok && c.prev != nil {
		if en, ok = c.prev[key]; ok {
			// Promote to the current generation.
			delete(c.prev, key)
			c.insertLocked(key, en)
		}
	}
	c.mu.Unlock()
	if !ok || !sequencesEqual(en.seq, seq) {
		return nil
	}
	return en
}

// store inserts (or upgrades) the entry for key.
func (c *summaryCache) store(key cacheKey, en *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.cur[key]; ok && old.sum != nil && en.sum == nil {
		return // never downgrade a summarized entry to reduction-only
	}
	c.insertLocked(key, en)
}

// insertLocked adds the entry, rotating generations at capacity.
func (c *summaryCache) insertLocked(key cacheKey, en *cacheEntry) {
	if len(c.cur) >= c.cap {
		c.prev = c.cur
		c.cur = make(map[cacheKey]*cacheEntry, c.cap/4)
	}
	c.cur[key] = en
}

// invalidateRange drops the object's entries whose interval overlaps
// [lo, hi] — the time span of the records just ingested for it. Entries
// over disjoint windows still see exactly the records they were computed
// from, so they are kept: with time-ordered ingest this is what lets
// summaries over sealed partitions (historical windows) survive every
// ingest instead of being evicted by data they can never observe.
// Correctness never depends on invalidation — hits are content-verified
// against the stored sequence — so a kept entry can at worst waste memory,
// never serve stale data.
func (c *summaryCache) invalidateRange(oid iupt.ObjectID, lo, hi iupt.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.cur {
		if key.oid == oid && key.first <= hi && key.last >= lo {
			delete(c.cur, key)
		}
	}
	for key := range c.prev {
		if key.oid == oid && key.first <= hi && key.last >= lo {
			delete(c.prev, key)
		}
	}
	c.invalidations++
}

// recordLookup accumulates the per-query hit/miss counts into the cache's
// lifetime counters.
func (c *summaryCache) recordLookup(hits, misses int64) {
	c.mu.Lock()
	c.hits += hits
	c.misses += misses
	c.mu.Unlock()
}

// entriesFor counts live entries of one object (used by tests).
func (c *summaryCache) entriesFor(oid iupt.ObjectID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key := range c.cur {
		if key.oid == oid {
			n++
		}
	}
	for key := range c.prev {
		if key.oid == oid {
			n++
		}
	}
	return n
}

// CacheStats is a snapshot of the engine's work-sharing state: the presence/
// interval cache and the query-level request coalescer, exposed via
// Engine.CacheStats.
type CacheStats struct {
	// Entries is the number of live cached (object, interval) summaries.
	Entries int
	// Hits and Misses count summary lookups over the engine's lifetime.
	Hits, Misses int64
	// Invalidations counts per-object range invalidations (one per object
	// touched by an ingested batch; see Engine.InvalidateObjectRange).
	Invalidations int64
	// Coalesced counts queries over the engine's lifetime that were served
	// by joining a concurrent identical caller's in-flight evaluation, and
	// Flights counts the evaluations actually performed — so of
	// Coalesced+Flights queries answered, only Flights did any work. Both
	// stay 0 when Options.DisableCoalescing is set; the coalescer is
	// independent of the presence cache, so they are reported even when
	// Options.DisableCache zeroes the fields above.
	Coalesced int64
	Flights   int64
	// WindowEntries, WindowHits, WindowMisses and WindowBytes describe the
	// sealed-window sequence cache: whole materialized query windows keyed by
	// the identity set of the sealed partitions that answer them. A window
	// hit skips rematerializing records out of the table entirely (the
	// storage layer's materialized_records counter stays flat). All four are
	// zero when Options.DisableCache is set; misses also count windows that
	// were cacheable but not yet stored.
	WindowEntries int
	WindowHits    int64
	WindowMisses  int64
	WindowBytes   int64
}

// CacheStats returns a snapshot of the engine's presence cache and request
// coalescer. Fields of a disabled component are zero.
func (e *Engine) CacheStats() CacheStats {
	var out CacheStats
	if c := e.cache; c != nil {
		c.mu.Lock()
		out.Entries = len(c.cur) + len(c.prev)
		out.Hits = c.hits
		out.Misses = c.misses
		out.Invalidations = c.invalidations
		c.mu.Unlock()
	}
	if wc := e.wcache; wc != nil {
		out.WindowEntries, out.WindowHits, out.WindowMisses, out.WindowBytes = wc.snapshot()
	}
	if co := e.coal; co != nil {
		co.mu.Lock()
		out.Coalesced = co.coalesced
		out.Flights = co.led
		co.mu.Unlock()
	}
	return out
}

// InvalidateObjectRange drops the object's cached summaries whose window
// overlaps [lo, hi] — the time span of newly ingested records. Entries over
// disjoint historical windows are kept: they still see exactly the records
// they were computed from. tkplq.System.Ingest calls this with each
// object's batch span, so in-order ingest never evicts summaries over
// already-sealed time ranges (the partitioned store's steady state).
func (e *Engine) InvalidateObjectRange(oid iupt.ObjectID, lo, hi iupt.Time) {
	if e.cache != nil {
		e.cache.invalidateRange(oid, lo, hi)
	}
}
