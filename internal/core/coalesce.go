package core

import (
	"context"
	"encoding/binary"
	"slices"
	"strings"
	"sync"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// coalescer is the driver's query-level request dedupe: concurrent identical
// queries — same query kind, algorithm, k, time window, source version and
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
// Identity is exact. The flight key pins the row source's version — a table's
// pointer and record count, a router's ingest epoch — so queries against
// different tables, or against the same data before and after an ingest, never
// share a flight; and it carries the canonical query set itself, so only
// queries over the same set of S-locations do.
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
// KindPresence coalesces). version is the row source's at join time, so a
// query issued after an append never joins a flight that may have started
// from the shorter table; table is nil for a source that is not a table.
type flightKey struct {
	kind    QueryKind
	algo    Algorithm
	k       int
	ts, te  iupt.Time
	table   *iupt.Table
	version int
	slocs   string // slocKey of the query set
}

// flight is one in-flight evaluation. res, stats, err, panicked and
// abandoned are written by the leader before done is closed and are
// immutable afterwards.
type flight struct {
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
	out := slices.Clone(q)
	slices.Sort(out)
	return out
}

// slocKey is a query set as a map key: the ids' bytes in ascending order, so
// two keys are equal exactly when the sets are, however they were listed.
func slocKey(canon []indoor.SLocID) string {
	if !slices.IsSorted(canon) {
		canon = canonicalSLocs(canon)
	}
	var b strings.Builder
	b.Grow(4 * len(canon))
	var id [4]byte
	for _, s := range canon {
		binary.LittleEndian.PutUint32(id[:], uint32(s))
		b.Write(id[:])
	}
	return b.String()
}

// do runs eval under the key, sharing the evaluation with every concurrent
// identical caller. The returned result slice is a private copy for each
// caller.
//
// Context semantics: a follower whose ctx is canceled while it waits
// *detaches* — it returns ctx.Err() immediately and the leader keeps
// evaluating for everyone else. A leader whose own ctx is canceled
// mid-evaluation marks the flight abandoned; followers with live contexts
// then evaluate for themselves instead of inheriting a cancellation that
// was never theirs.
func (c *coalescer) do(ctx context.Context, key flightKey, eval func(context.Context) ([]Result, Stats, error)) ([]Result, Stats, error) {
	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
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
			return c.do(ctx, key, eval)
		}
		c.coalesced++
		c.mu.Unlock()
		stats := f.stats
		stats.Coalesced = 1
		return append([]Result(nil), f.res...), stats, f.err
	}

	f := &flight{done: make(chan struct{}), panicked: true}
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
