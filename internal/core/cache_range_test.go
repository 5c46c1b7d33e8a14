package core

import (
	"math"
	"testing"

	"tkplq/internal/iupt"
)

// TestInvalidateRangeKeepsDisjointWindows: range-scoped invalidation drops
// only the entries whose interval overlaps the ingested span — summaries
// over historical (sealed) windows survive in-order ingest.
func TestInvalidateRangeKeepsDisjointWindows(t *testing.T) {
	c := newSummaryCache(16)
	key := func(oid iupt.ObjectID, first, last iupt.Time) cacheKey {
		return cacheKey{oid: oid, n: 2, first: first, last: last, hash: uint64(oid)<<32 ^ uint64(first)}
	}
	en := &cacheEntry{}
	c.store(key(1, 0, 100), en)   // historical window
	c.store(key(1, 150, 200), en) // overlaps the ingest below
	c.store(key(1, 190, 260), en) // overlaps
	c.store(key(1, 300, 400), en) // future window, disjoint
	c.store(key(2, 150, 200), en) // other object, untouched

	c.invalidateRange(1, 180, 220)

	has := func(k cacheKey) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.cur[k]
		return ok
	}
	if !has(key(1, 0, 100)) {
		t.Error("disjoint historical window was invalidated")
	}
	if !has(key(1, 300, 400)) {
		t.Error("disjoint future window was invalidated")
	}
	if has(key(1, 150, 200)) || has(key(1, 190, 260)) {
		t.Error("overlapping windows survived invalidation")
	}
	if !has(key(2, 150, 200)) {
		t.Error("another object's window was invalidated")
	}

	// Boundary-touching windows overlap (inclusive on both ends).
	c.store(key(1, 220, 230), en)
	c.store(key(1, 170, 180), en)
	c.invalidateRange(1, 180, 220)
	if has(key(1, 220, 230)) || has(key(1, 170, 180)) {
		t.Error("boundary-touching windows survived invalidation")
	}

	// A range covering all time clears everything for the object.
	c.invalidateRange(1, 0, math.MaxInt64)
	if n := c.entriesFor(1); n != 0 {
		t.Errorf("object 1 has %d entries after an all-time invalidate", n)
	}
	if n := c.entriesFor(2); n != 1 {
		t.Errorf("object 2 has %d entries, want 1", n)
	}
}
