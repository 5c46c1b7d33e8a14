package core

import (
	"context"
	"sync"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// coalescer is the engine's query-level request dedupe: concurrent identical
// queries — same query kind, algorithm, k, time window, table snapshot and
// query set — share one in-flight evaluation instead of each recomputing it.
// The first caller of a key becomes the flight's leader and evaluates; every
// caller that arrives while the flight is open blocks until the leader
// finishes and receives a copy of the leader's results and stats with
// Stats.Coalesced set.
//
// The coalescer sits *above* the window cache: the cache dedupes per-object
// work across queries that have already finished, the coalescer dedupes whole
// evaluations that are racing right now (a stampede of identical requests,
// e.g. a popular dashboard window, costs one evaluation instead of N).
//
// Identity is conservative. The flight key fingerprints the table by pointer
// and record count, so queries against different tables — or against the same
// table before and after an ingest — never share a flight; and the key's
// query-set hash is verified against the stored canonical query set before a
// caller joins, so hash collisions degrade to an uncoalesced evaluation, never
// to a wrong answer.
type coalescer struct {
	mu      sync.Mutex
	flights map[flightKey]*flight

	// waiting is the number of callers currently blocked on some flight
	// (introspection for tests).
	waiting int
	// coalesced and led are lifetime counters: queries served by joining an
	// existing flight, and evaluations actually performed.
	coalesced int64
	led       int64

	// holdEval, when non-nil, blocks every leader between registering its
	// flight and evaluating, until the channel is closed. Test hook: it lets
	// tests deterministically pile N callers onto one flight.
	holdEval chan struct{}
}

func newCoalescer() *coalescer {
	return &coalescer{flights: make(map[flightKey]*flight)}
}

// flightKey identifies one coalescable evaluation (every kind but
// KindPresence coalesces). tableLen pins the table's record count at join
// time, so a query issued after an append never joins a flight that may have
// started from the shorter table.
type flightKey struct {
	kind     QueryKind
	algo     Algorithm
	k        int
	ts, te   iupt.Time
	table    *iupt.Table
	tableLen int
	qLen     int
	qHash    uint64
}

// flight is one in-flight evaluation. res, stats, err, panicked and
// abandoned are written by the leader before done is closed and are
// immutable afterwards.
type flight struct {
	q    []indoor.SLocID // canonical (ascending) query set, for collision verification
	done chan struct{}

	res   []Result
	stats Stats
	err   error
	// panicked is true when the leader's evaluation panicked instead of
	// completing; followers then evaluate for themselves rather than serve
	// an empty result.
	panicked bool
	// abandoned is true when the leader's own context was canceled before
	// the evaluation finished. The leader's ctx.Err() is about *its* caller,
	// not the followers', so followers with live contexts take over and
	// evaluate for themselves instead of inheriting the cancellation.
	abandoned bool
}

// canonicalSLocs returns a sorted copy of q (ascending id). Rankings are
// order-invariant — ties break by id — so queries over the same *set* of
// S-locations coalesce regardless of the order the caller listed them in.
func canonicalSLocs(q []indoor.SLocID) []indoor.SLocID {
	out := append([]indoor.SLocID(nil), q...)
	for i := 1; i < len(out); i++ { // insertion sort: query sets are small-ish and nearly sorted
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// FNV-1a constants for the query-set hash.
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

// slocHash fingerprints a canonical query set with FNV-1a.
func slocHash(q []indoor.SLocID) uint64 {
	h := uint64(fnvOffset64)
	for _, s := range q {
		h = fnvMix(h, uint64(uint32(s)))
	}
	return h
}

// slocsEqual reports element-wise equality of two canonical query sets.
func slocsEqual(a, b []indoor.SLocID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// do runs eval under the key, sharing the evaluation with every concurrent
// identical caller. q must be the canonical query set behind key.qHash. The
// returned result slice is a private copy for each caller.
//
// Context semantics: a follower whose ctx is canceled while it waits
// *detaches* — it returns ctx.Err() immediately and the leader keeps
// evaluating for everyone else. A leader whose own ctx is canceled
// mid-evaluation marks the flight abandoned; followers with live contexts
// then evaluate for themselves instead of inheriting a cancellation that
// was never theirs.
func (c *coalescer) do(ctx context.Context, key flightKey, q []indoor.SLocID, eval func(context.Context) ([]Result, Stats, error)) ([]Result, Stats, error) {
	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
		if !slocsEqual(f.q, q) {
			// Hash collision between different query sets: evaluate solo
			// rather than serve someone else's answer.
			c.led++
			c.mu.Unlock()
			return eval(ctx)
		}
		c.waiting++
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			// Follower detach: this caller is gone, the flight is not.
			c.mu.Lock()
			c.waiting--
			c.mu.Unlock()
			return nil, Stats{}, ctx.Err()
		}
		c.mu.Lock()
		c.waiting--
		if f.panicked {
			// The leader blew up before producing a result. Evaluate solo —
			// a deterministic panic then reaches this caller exactly as it
			// would have without coalescing.
			c.led++
			c.mu.Unlock()
			return eval(ctx)
		}
		if f.abandoned {
			// The leader was canceled, not broken: re-enter the coalescer so
			// the first woken follower leads ONE replacement flight and the
			// rest coalesce onto it — a canceled leader must not turn its
			// followers back into the stampede coalescing exists to prevent.
			c.mu.Unlock()
			return c.do(ctx, key, q, eval)
		}
		c.coalesced++
		c.mu.Unlock()
		stats := f.stats
		stats.Coalesced = 1
		return append([]Result(nil), f.res...), stats, f.err
	}

	f := &flight{q: q, done: make(chan struct{}), panicked: true}
	c.flights[key] = f
	c.led++
	hold := c.holdEval
	c.mu.Unlock()

	if hold != nil {
		<-hold
	}
	// The deferred cleanup runs even when eval panics: the flight must leave
	// the map and done must close, or every waiting and future identical
	// caller would hang forever on a dead flight.
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
	}()
	f.res, f.stats, f.err = eval(ctx)
	f.panicked = false
	if f.err != nil && ctx.Err() != nil {
		// The leader's evaluation died with its own context — hand the work
		// back to the followers rather than failing them with this ctx.Err().
		f.abandoned = true
	}
	// The leader hands its followers the f.res backing array; return a copy so
	// a caller mutating its slice cannot race the followers' copies.
	return append([]Result(nil), f.res...), f.stats, f.err
}

// waiterCount returns the number of callers currently blocked on flights
// (test introspection).
func (c *coalescer) waiterCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waiting
}
