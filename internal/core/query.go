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
	// Algorithm selects the TkPLQ search strategy; KindTopK only (density
	// always runs the shared nested-loop pass). The zero value is AlgoNaive.
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
	// DisableCache bypasses the engine's presence/interval cache for this
	// query: nothing is read from or newly merged into per-query stats. The
	// underlying cache keeps serving other queries.
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
		v.wcache = nil
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

// Do evaluates one query. It is the single entry point behind the legacy
// TopK/TopKDensity/Flow/Presence methods, with two additions: per-query
// option overrides (Query.Workers, Query.DisableCache,
// Query.DisableCoalescing) and full context plumbing — a canceled or expired
// ctx aborts the evaluation promptly (shard workers stop between objects,
// Best-First stops between heap pops) and Do returns ctx.Err(). A follower
// coalesced onto another caller's flight detaches on cancellation without
// disturbing the flight; a canceled leader hands the work back to its
// followers.
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
	switch q.Kind {
	case KindTopK:
		res, st, err := ev.coalescedTopK(ctx, table, q.SLocs, k, q.Ts, q.Te, q.Algorithm)
		if err != nil {
			return nil, err
		}
		return &Response{Results: res, Stats: st}, nil
	case KindDensity:
		res, st, err := ev.coalescedTopKDensity(ctx, table, q.SLocs, k, q.Ts, q.Te)
		if err != nil {
			return nil, err
		}
		return &Response{Results: res, Stats: st}, nil
	case KindFlow:
		flow, st, err := ev.coalescedFlow(ctx, table, q.SLocs[0], q.Ts, q.Te)
		if err != nil {
			return nil, err
		}
		return &Response{Results: []Result{{SLoc: q.SLocs[0], Flow: flow}}, Flow: flow, Stats: st}, nil
	default: // KindPresence, validated above
		p, st, err := ev.evalPresence(ctx, table, q.SLocs[0], q.OID, q.Ts, q.Te)
		if err != nil {
			return nil, err
		}
		return &Response{Results: []Result{{SLoc: q.SLocs[0], Flow: p}}, Flow: p, Stats: st}, nil
	}
}

// batchKey groups the queries of one DoBatch call that can share a single
// per-object data-reduction + presence-summarization pass: same window
// fingerprint and same evaluation-changing overrides.
type batchKey struct {
	ts, te       iupt.Time
	workers      int
	disableCache bool
}

// DoBatch evaluates a set of queries, sharing work across them. Queries are
// grouped by window fingerprint (and per-query overrides); each group with
// more than one member performs the expensive per-object pipeline —
// Algorithm 1 data reduction and Equation 1 presence summarization — exactly
// once for the whole group and then fans out the cheap per-query ranking.
// This is the amortization the one-query-per-call API cannot express: M
// overlapping dashboard queries over the same window cost one reduction pass
// instead of M.
//
// Results are bit-identical to issuing each query through Do sequentially,
// at every worker count: the shared pass computes the same per-object
// summaries, accumulates flows in the same canonical ascending-object order,
// and ranks with the same comparator. (Per-query Stats differ by design —
// they describe the shared pass, with Stats.SharedBatch set to the group
// size.) Every query is validated before any evaluation starts; an invalid
// query anywhere fails the whole batch. Responses align index-for-index
// with qs.
func (e *Engine) DoBatch(ctx context.Context, table *iupt.Table, qs []Query) ([]*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if table == nil {
		return nil, fmt.Errorf("core: nil table")
	}
	ks := make([]int, len(qs))
	for i, q := range qs {
		k, err := e.validateQuery(q)
		if err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		ks[i] = k
	}
	// Group in first-appearance order so evaluation order is deterministic.
	groups := make(map[batchKey][]int)
	var order []batchKey
	for i, q := range qs {
		key := batchKey{ts: q.Ts, te: q.Te, workers: e.view(q).opts.workerCount(), disableCache: q.DisableCache}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	out := make([]*Response, len(qs))
	for _, key := range order {
		idxs := groups[key]
		if len(idxs) == 1 {
			// A lone window gains nothing from the shared pass; route it
			// through Do so it still coalesces with concurrent callers.
			resp, err := e.Do(ctx, table, qs[idxs[0]])
			if err != nil {
				return nil, err
			}
			out[idxs[0]] = resp
			continue
		}
		if err := e.evalBatchGroup(ctx, table, qs, ks, idxs, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evalBatchGroup answers the queries at idxs (all sharing one window and one
// override set) from a single shared oracle pass. The oracle's query set is
// the union of the member queries' S-location sets, so PSL∩Q pruning stays
// sound for every member: an object pruned by the union has zero presence in
// every member's locations, and contributing an exact 0.0 to a float sum is
// the identity — which is why the per-query flows below are bit-identical to
// the single-query evaluations.
func (e *Engine) evalBatchGroup(ctx context.Context, table *iupt.Table, qs []Query, ks []int, idxs []int, out []*Response) error {
	ev := e.view(qs[idxs[0]])
	seqs, err := ev.sequences(ctx, table, qs[idxs[0]].Ts, qs[idxs[0]].Te)
	if err != nil {
		return err
	}
	union := make(map[indoor.SLocID]bool)
	for _, qi := range idxs {
		for _, s := range qs[qi].SLocs {
			union[s] = true
		}
	}
	oracle := newOracle(ev, seqs, union)
	oids := oracle.objects()
	if err := oracle.ensureSummaries(ctx, oids); err != nil {
		return err
	}
	shared := oracle.finishStats()
	shared.SharedBatch = len(idxs)

	for _, qi := range idxs {
		q := qs[qi]
		if q.Kind == KindPresence {
			p := 0.0
			if _, ok := seqs[q.OID]; ok {
				if sum := oracle.summary(q.OID); sum != nil {
					p = sum.Presence(e.space.CellOfSLoc(q.SLocs[0]), e.opts.Presence)
				}
			}
			out[qi] = &Response{Results: []Result{{SLoc: q.SLocs[0], Flow: p}}, Flow: p, Stats: shared}
			continue
		}
		// Accumulate every member location's flow in canonical ascending
		// object order — the same additions, in the same order, as the
		// single-query paths perform.
		cells := make([]indoor.CellID, len(q.SLocs))
		for j, s := range q.SLocs {
			cells[j] = e.space.CellOfSLoc(s)
		}
		flows := make([]float64, len(q.SLocs))
		for _, oid := range oids {
			if _, ok := oracle.reduction(oid); !ok {
				continue // pruned by the union set ⇒ pruned for every member
			}
			sum := oracle.summary(oid)
			for j := range cells {
				flows[j] += sum.Presence(cells[j], e.opts.Presence)
			}
		}
		results := make([]Result, len(q.SLocs))
		for j, s := range q.SLocs {
			results[j] = Result{SLoc: s, Flow: flows[j]}
		}
		switch q.Kind {
		case KindFlow:
			out[qi] = &Response{Results: results, Flow: flows[0], Stats: shared}
		case KindDensity:
			out[qi] = &Response{Results: e.densityRank(results, ks[qi]), Stats: shared}
		default: // KindTopK
			out[qi] = &Response{Results: rankTopK(results, ks[qi]), Stats: shared}
		}
	}
	return nil
}
