package core

import (
	"context"
	"fmt"

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
	// DisableCache bypasses the engine's window cache for this query: its
	// window is materialized afresh, nothing is read from or stored in a
	// memo, and the per-query cache counters stay 0. The underlying cache
	// keeps serving other queries. Subscribe ignores it: feeds use no cache.
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

// view returns the engine this query evaluates on: e itself when the query
// carries no overrides, otherwise a shallow copy with the per-query worker
// pool, cache bypass and coalescing bypass applied. The copy shares the
// underlying cache and coalescer pointers (unless bypassed), so overridden
// queries still feed the same machinery.
func (e *Engine) view(q Query) *Engine {
	if q.Workers == 0 && !q.DisableCache && !q.DisableCoalescing {
		return e
	}
	v := *e
	if q.Workers != 0 {
		v.opts.Workers = q.Workers
	}
	if q.DisableCache {
		v.cache = nil
	}
	if q.DisableCoalescing {
		v.coal = nil
	}
	return &v
}

// validateQuery checks a query's shape against the engine's space and
// returns the effective (clamped) k for ranked kinds.
func (e *Engine) validateQuery(q Query) (int, error) {
	switch q.Kind {
	case KindTopK:
		if q.Algorithm != AlgoNaive && q.Algorithm != AlgoNestedLoop && q.Algorithm != AlgoBestFirst {
			return 0, fmt.Errorf("core: unknown algorithm %d", q.Algorithm)
		}
		return e.validateTopK(q.SLocs, q.K)
	case KindDensity:
		return e.validateTopK(q.SLocs, q.K)
	case KindFlow, KindPresence:
		if len(q.SLocs) != 1 {
			return 0, fmt.Errorf("core: %s query needs exactly one S-location, got %d", q.Kind, len(q.SLocs))
		}
		if s := q.SLocs[0]; int(s) < 0 || int(s) >= e.space.NumSLocations() {
			return 0, fmt.Errorf("core: unknown S-location %d", s)
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("core: unknown query kind %d", q.Kind)
	}
}

// Do evaluates one query: the single entry point behind every query kind,
// with per-query option overrides (Query.Workers, Query.DisableCache,
// Query.DisableCoalescing) and full context plumbing — a canceled or expired
// ctx aborts the evaluation promptly (shard workers stop between objects,
// Best-First stops between heap pops) and Do returns ctx.Err(). A follower
// coalesced onto another caller's flight detaches on cancellation without
// disturbing the flight; a canceled leader hands the work back to its
// followers.
//
// Naive and Best-First are the paper's two search strategies over the
// presence oracle. Every other query — Nested-Loop, density, flow, presence —
// is the one-shard, one-member case of the shared pass → finisher pipeline
// (partial.go).
func (e *Engine) Do(ctx context.Context, table *iupt.Table, q Query) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if table == nil {
		return nil, fmt.Errorf("core: nil table")
	}
	k, err := e.validateQuery(q)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ev := e.view(q)
	results, stats, err := ev.coalesced(ctx, table, q, k, func(ctx context.Context) ([]Result, Stats, error) {
		switch {
		case q.Kind == KindTopK && q.Algorithm == AlgoNaive:
			return ev.topkNaive(ctx, table, q.SLocs, k, q.Ts, q.Te)
		case q.Kind == KindTopK && q.Algorithm == AlgoBestFirst:
			return ev.topkBestFirst(ctx, table, q.SLocs, k, q.Ts, q.Te)
		}
		out := make([]*Response, 1)
		if err := ev.evalGroup(ctx, table, q, []Query{q}, []int{0}, out); err != nil {
			return nil, Stats{}, err
		}
		return out[0].Results, out[0].Stats, nil
	})
	if err != nil {
		return nil, err
	}
	resp := &Response{Results: results, Stats: stats}
	if q.Kind == KindFlow || q.Kind == KindPresence {
		resp.Flow = results[0].Flow
	}
	return resp, nil
}

// coalesced runs a validated query's evaluation through the request coalescer
// (when enabled). Presence never coalesces. A flight keys on the algorithm
// only for the kind that reads it: density pins AlgoNestedLoop and flow 0.
func (e *Engine) coalesced(ctx context.Context, table *iupt.Table, q Query, k int, eval func(context.Context) ([]Result, Stats, error)) ([]Result, Stats, error) {
	if e.coal == nil || q.Kind == KindPresence {
		return eval(ctx)
	}
	canon := canonicalSLocs(q.SLocs)
	key := flightKey{kind: q.Kind, k: k, ts: q.Ts, te: q.Te, table: table, tableLen: table.Len(), qLen: len(canon), qHash: slocHash(canon)}
	switch q.Kind {
	case KindTopK:
		key.algo = q.Algorithm
	case KindDensity:
		key.algo = AlgoNestedLoop
	}
	return e.coal.do(ctx, key, canon, eval)
}

// evalGroup answers the validated queries at idxs — one window, one override
// set, e being their view — from a single shared pass streamed into one
// finisher. pass is what that pass evaluates: the member itself for a lone
// query, for a batch group the window over the union of the members'
// S-location sets (what a router fans out). Pruning against the union stays
// sound: an object it prunes has zero presence in every member's locations.
func (e *Engine) evalGroup(ctx context.Context, table *iupt.Table, pass Query, qs []Query, idxs []int, out []*Response) error {
	fin, err := e.newFinisher(qs, idxs, pass.SLocs)
	if err != nil {
		return err
	}
	stats, err := e.sharedPass(ctx, table, pass, fin.add)
	if err != nil {
		return err
	}
	fin.finish(stats, out)
	return nil
}

// DoBatch evaluates a set of queries, sharing work across them. Queries are
// grouped by window fingerprint and per-query overrides (BatchGroups); each
// group with more than one member performs the expensive per-object pipeline
// — Algorithm 1 data reduction and Equation 1 presence summarization —
// exactly once, over the union of the members' S-location sets, and the
// finisher fans out the cheap per-query ranking. This is the amortization
// the one-query-per-call API cannot express: M overlapping dashboard queries
// over the same window cost one reduction pass instead of M.
//
// Results are bit-identical to issuing each query through Do sequentially,
// at every worker count: a lone query and a group run the same shared pass
// and the same finisher. (Per-query Stats differ by design — they describe
// the shared pass, with Stats.SharedBatch set to the group size.) Every query
// is validated before any evaluation starts; an invalid query anywhere fails
// the whole batch. Responses align index-for-index with qs.
func (e *Engine) DoBatch(ctx context.Context, table *iupt.Table, qs []Query) ([]*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if table == nil {
		return nil, fmt.Errorf("core: nil table")
	}
	for i, q := range qs {
		if _, err := e.validateQuery(q); err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
	}
	out := make([]*Response, len(qs))
	for _, idxs := range e.BatchGroups(qs) {
		m := qs[idxs[0]]
		if len(idxs) == 1 {
			// A lone window gains nothing from sharing; route it through Do
			// so it still coalesces with concurrent callers.
			resp, err := e.Do(ctx, table, m)
			if err != nil {
				return nil, err
			}
			out[idxs[0]] = resp
			continue
		}
		pass := Query{Kind: KindTopK, Ts: m.Ts, Te: m.Te, SLocs: UnionSLocs(qs, idxs)}
		if err := e.view(m).evalGroup(ctx, table, pass, qs, idxs, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
