package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// QueryKind selects what a Query computes.
type QueryKind uint8

const (
	// KindTopK is the Top-k Popular Location Query (paper Problem 1).
	KindTopK QueryKind = iota
	// KindDensity ranks by flow per square meter (the paper's §7 size-aware
	// variant).
	KindDensity
	// KindFlow computes one S-location's indoor flow (Definition 1).
	KindFlow
	// KindPresence computes one object's presence in one S-location
	// (Equation 1).
	KindPresence
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	switch k {
	case KindDensity:
		return "density"
	case KindFlow:
		return "flow"
	case KindPresence:
		return "presence"
	default:
		return "topk"
	}
}

// Query is one self-describing query against an engine: what to compute
// (Kind), over which S-locations and time window, and how. The zero value of
// every optional field selects the engine's default, so a minimal TkPLQ is
// Query{Kind: KindTopK, K: k, Te: te, SLocs: q}.
type Query struct {
	// Kind selects the computation; the zero value is KindTopK.
	Kind QueryKind
	// Algorithm selects how a KindTopK query is evaluated. The other kinds
	// ignore it: they run the shared pass, which is what AlgoNestedLoop
	// selects for KindTopK too, and so do DoPartial and Subscribe, whose
	// answers are bit-identical under all three. The zero value is AlgoNaive.
	Algorithm Algorithm
	// K is the result count for KindTopK and KindDensity, clamped to
	// len(SLocs); it must be positive.
	K int
	// Ts and Te bound the query window [Ts, Te]. Ignored by Subscribe,
	// which slides its window with the data (see Window).
	Ts, Te iupt.Time
	// Window is the sliding-window length of an Engine.Subscribe query: each
	// update covers [now-Window, now] where now is the latest record
	// timestamp seen. Required (positive) for Subscribe; ignored by Do and
	// DoBatch, whose windows are the explicit [Ts, Te].
	Window iupt.Time
	// SLocs is the query set. KindFlow and KindPresence require exactly one
	// entry; KindTopK and KindDensity require a non-empty duplicate-free set.
	SLocs []indoor.SLocID
	// OID is the object whose presence KindPresence computes.
	OID iupt.ObjectID

	// Workers overrides the engine's worker pool size for this query only
	// (same semantics as Options.Workers; 0 keeps the engine's setting).
	// Results are bit-identical at every pool size, so the override is a
	// scheduling knob, never a correctness one.
	Workers int
	// DisableCache bypasses the engine's window cache for this query: no
	// window entry, no memo, no rank slot. Its window is materialized afresh
	// into pooled memory and the per-query cache counters stay 0. It still
	// reads the engine's slabs (slab.go), and may build them: slabs are
	// storage, not cache. The underlying cache keeps serving other queries.
	// Subscribe ignores it: feeds use no cache.
	DisableCache bool
	// DisableCoalescing opts this query out of query-level request
	// coalescing: it always evaluates for itself and never joins (or leads)
	// a shared flight.
	DisableCoalescing bool
}

// Response is the answer to one Query.
type Response struct {
	// Results is the ranked answer. KindTopK and KindDensity return up to K
	// entries (Result.Flow carries objects/m² for density); KindFlow and
	// KindPresence return exactly one entry carrying the scalar value.
	Results []Result
	// Flow is the scalar convenience value: the flow of a KindFlow query and
	// the presence of a KindPresence query (both also in Results[0].Flow);
	// 0 for ranked kinds.
	Flow float64
	// Stats reports the work performed. For a query answered inside a shared
	// DoBatch group the per-object fields describe the group's single shared
	// pass and SharedBatch is the group size.
	Stats Stats
}

// view returns the engine this query's pass evaluates on: e itself when the
// query carries no overrides, otherwise a shallow copy with the per-query
// worker pool and cache bypass applied. The copy shares the underlying cache
// pointer (unless bypassed), so overridden queries still feed the same
// machinery.
func (e *Engine) view(q Query) *Engine {
	if q.Workers == 0 && !q.DisableCache {
		return e
	}
	v := *e
	if q.Workers != 0 {
		v.opts.Workers = q.Workers
	}
	if q.DisableCache {
		v.cache = nil
	}
	return &v
}

// validateQuery checks a query's shape against the driver's space and
// returns the effective (clamped) k for ranked kinds.
func (d *Driver) validateQuery(q Query) (int, error) {
	switch q.Kind {
	case KindTopK:
		if q.Algorithm != AlgoNaive && q.Algorithm != AlgoNestedLoop && q.Algorithm != AlgoBestFirst {
			return 0, fmt.Errorf("core: unknown algorithm %d", q.Algorithm)
		}
		return d.validateTopK(q.SLocs, q.K)
	case KindDensity:
		return d.validateTopK(q.SLocs, q.K)
	case KindFlow, KindPresence:
		if len(q.SLocs) != 1 {
			return 0, fmt.Errorf("core: %s query needs exactly one S-location, got %d", q.Kind, len(q.SLocs))
		}
		if s := q.SLocs[0]; int(s) < 0 || int(s) >= d.space.NumSLocations() {
			return 0, fmt.Errorf("core: unknown S-location %d", s)
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("core: unknown query kind %d", q.Kind)
	}
}

// RowSource is where a Driver's presence rows come from: a table (Engine.Do
// and DoBatch: the shared pass, streamed) or a cluster router (the shards'
// partials, merged and replayed).
type RowSource interface {
	// Version pins a flight: a lone query joins a concurrent identical one
	// only while the source reports the same version — a table's record
	// count, a router's ingest epoch — so a query racing an ingest never
	// shares a pre-ingest evaluation.
	Version() int
	// Rows evaluates one pass — the window pass.Ts/Te, the columns pass.SLocs,
	// the overrides pass.Workers/DisableCache and, for KindPresence, only the
	// object pass.OID — and hands emit one row per contributing object in
	// strictly ascending object order: row[j] is its presence in
	// pass.SLocs[j], and an object without a row has presence exactly 0.0
	// everywhere. emit does not retain row. The Stats describe the pass.
	Rows(ctx context.Context, pass Query, emit func(oid iupt.ObjectID, row []float64)) (Stats, error)
}

// Driver is the one way queries become responses (Answer). It knows the space
// — validation, density areas — and carries the flights; where the rows come
// from is the RowSource's business, which is what keeps a standalone answer
// and a cluster's bit-identical.
type Driver struct {
	space *indoor.Space
	coal  *coalescer
	// workers is what Query.Workers == 0 means when grouping: the embedding
	// engine's Options.Workers, 0 (GOMAXPROCS) on a router.
	workers int
}

// NewDriver returns a coalescing driver for a caller that brings its own
// RowSource (the cluster router); an Engine embeds its own.
func NewDriver(space *indoor.Space) *Driver {
	return &Driver{space: space, coal: newCoalescer()}
}

// Counts reports how many queries were served by joining a flight and how
// many evaluations were led.
func (d *Driver) Counts() (coalesced, led int64) {
	d.coal.mu.Lock()
	defer d.coal.mu.Unlock()
	return d.coal.coalesced, d.coal.led
}

// Answer evaluates qs against src, sharing work across them. Every query is
// validated before any evaluation starts; an invalid one fails the whole call
// (naming its index when there are several). Queries are grouped by window
// and per-query overrides, and each group performs the expensive per-object
// pipeline — Algorithm 1 data reduction and Equation 1 presence summarization
// — once, over the union of the members' S-location sets, before the finisher
// fans out the cheap per-query ranking. Pruning against the union stays
// sound: an object it prunes has zero presence in every member's locations.
// A query alone in its group shares across calls instead: it coalesces with
// concurrent identical callers (Query.DisableCoalescing opts out, presence
// never does). A follower detaches from its flight when its ctx is canceled;
// a canceled leader hands the work back to its followers.
//
// Responses align with qs and are bit-identical however a query was grouped;
// Stats describe the pass that answered it, SharedBatch its group's size.
func (d *Driver) Answer(ctx context.Context, src RowSource, qs []Query) ([]*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ks := make([]int, len(qs))
	for i, q := range qs {
		k, err := d.validateQuery(q)
		if err != nil {
			if len(qs) > 1 {
				err = fmt.Errorf("core: batch query %d: %w", i, err)
			}
			return nil, err
		}
		ks[i] = k
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]*Response, len(qs))
	for _, idxs := range d.batchGroups(qs) {
		i, m := idxs[0], qs[idxs[0]]
		if len(idxs) > 1 {
			// The pass is itself a valid query: a shard validates what it is sent.
			union := unionSLocs(qs, idxs)
			pass := Query{Kind: KindTopK, K: len(union), Ts: m.Ts, Te: m.Te, SLocs: union, Workers: m.Workers, DisableCache: m.DisableCache}
			if err := d.evalGroup(ctx, src, pass, qs, idxs, out); err != nil {
				return nil, err
			}
			continue
		}
		var eval func(context.Context) ([]Result, Stats, error)
		key := flightKey{kind: m.Kind, k: ks[i], ts: m.Ts, te: m.Te, version: src.Version()}
		if ts, ok := src.(tableSource); ok {
			key.table = ts.table
			key.algo, eval = ts.search(m, ks[i])
		}
		if eval == nil {
			eval = func(ctx context.Context) ([]Result, Stats, error) {
				if err := d.evalGroup(ctx, src, m, qs, idxs, out); err != nil {
					return nil, Stats{}, err
				}
				return out[i].Results, out[i].Stats, nil
			}
		}
		resp := &Response{}
		var err error
		if m.DisableCoalescing || m.Kind == KindPresence {
			resp.Results, resp.Stats, err = eval(ctx)
		} else {
			key.slocs = slocKey(m.SLocs)
			resp.Results, resp.Stats, err = d.coal.do(ctx, key, eval)
		}
		if err != nil {
			return nil, err
		}
		if m.Kind == KindFlow || m.Kind == KindPresence {
			resp.Flow = resp.Results[0].Flow
		}
		out[i] = resp
	}
	return out, nil
}

// evalGroup answers the validated queries at idxs — one window, one override
// set — from a single pass of src streamed into one finisher. pass is what
// that pass evaluates: the member itself for a lone query (columns in the
// caller's order), for a larger group the window over the members' union.
func (d *Driver) evalGroup(ctx context.Context, src RowSource, pass Query, qs []Query, idxs []int, out []*Response) error {
	fin, err := d.newFinisher(qs, idxs, pass.SLocs)
	if err != nil {
		return err
	}
	stats, err := src.Rows(ctx, pass, fin.add)
	if err != nil {
		return err
	}
	fin.finish(stats, out)
	return nil
}

// batchKey groups the queries of one call that can share a single pass: same
// window and same evaluation-changing overrides (workers is the resolved pool
// size, so an explicit default groups with an implicit one).
type batchKey struct {
	ts, te       iupt.Time
	workers      int
	disableCache bool
}

// batchGroups partitions qs by batchKey, in first-appearance order so
// evaluation order is deterministic. Each group is the index set of one pass
// (on a router, one fan-out).
func (d *Driver) batchGroups(qs []Query) [][]int {
	if len(qs) == 1 {
		return loneGroup // the serving path's common case, without the map
	}
	var out [][]int
	at := make(map[batchKey]int, len(qs)) // key → its group's index in out
	for i, q := range qs {
		pool := Options{Workers: cmp.Or(q.Workers, d.workers)}
		key := batchKey{ts: q.Ts, te: q.Te, workers: pool.workerCount(), disableCache: q.DisableCache}
		g, ok := at[key]
		if !ok {
			g, at[key] = len(out), len(out)
			out = append(out, nil)
		}
		out[g] = append(out[g], i)
	}
	return out
}

var loneGroup = [][]int{{0}}

// unionSLocs returns the ascending duplicate-free union of the queries'
// S-location sets: the column order of a group's pass.
func unionSLocs(qs []Query, idxs []int) []indoor.SLocID {
	var out []indoor.SLocID
	for _, qi := range idxs {
		out = append(out, qs[qi].SLocs...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// tableSource is the local RowSource: the engine's shared pass over a table.
type tableSource struct {
	e     *Engine
	table *iupt.Table
}

func (s tableSource) Version() int { return s.table.Len() }

func (s tableSource) Rows(ctx context.Context, pass Query, emit func(iupt.ObjectID, []float64)) (Stats, error) {
	v := s.e.view(pass)
	o, err := v.sharedPass(ctx, s.table, pass)
	if err != nil {
		return Stats{}, err
	}
	defer o.en.release() // emit does not retain a row
	return v.rows(o, pass.SLocs, emit), nil
}

// search is the one reader of Query.Algorithm. Naive and Best-First, the
// paper's two search strategies over the presence oracle, need the table, not
// rows, so they exist for a lone top-k on a local table only; everywhere else
// the field is ignored, all three algorithms' answers being bit-identical.
// search returns the strategy (a flight keys on it: their Stats differ) and
// its evaluation, or nil for a query that runs the pass.
func (s tableSource) search(q Query, k int) (Algorithm, func(context.Context) ([]Result, Stats, error)) {
	switch {
	case q.Kind == KindTopK && q.Algorithm == AlgoNaive:
		return AlgoNaive, func(ctx context.Context) ([]Result, Stats, error) {
			return s.e.view(q).topkNaive(ctx, s.table, q.SLocs, k, q.Ts, q.Te)
		}
	case q.Kind == KindTopK && q.Algorithm == AlgoBestFirst:
		return AlgoBestFirst, func(ctx context.Context) ([]Result, Stats, error) {
			return s.e.view(q).topkBestFirst(ctx, s.table, q.SLocs, k, q.Ts, q.Te)
		}
	}
	return AlgoNestedLoop, nil
}

// Do evaluates one query: a DoBatch of one.
func (e *Engine) Do(ctx context.Context, table *iupt.Table, q Query) (*Response, error) {
	return first(e.DoBatch(ctx, table, []Query{q}))
}

// DoBatch evaluates a set of queries over the table, sharing work across them
// (Driver.Answer): M overlapping dashboard queries over the same window cost
// one reduction pass instead of M, with results bit-identical to issuing each
// through Do, at every worker count.
func (e *Engine) DoBatch(ctx context.Context, table *iupt.Table, qs []Query) ([]*Response, error) {
	if table == nil {
		return nil, fmt.Errorf("core: nil table")
	}
	return e.Answer(ctx, tableSource{e, table}, qs)
}

// first unwraps the response to a batch of one.
func first(out []*Response, err error) (*Response, error) {
	if err != nil {
		return nil, err
	}
	return out[0], nil
}
