package core

import (
	"context"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// Flow computes the indoor flow Θ_{ts,te,O}(q) for a single S-location
// (paper §3.3, Algorithm 2): the sum, over the objects with records in
// [ts, te], of their presence in q — a one-column run of the shared pass, so
// the flow is bit-identical at any pool size and to the same location's flow
// in any TopK. Concurrent identical calls share one evaluation
// (Options.DisableCoalescing, Stats.Coalesced).
//
// Flow is the uncancellable legacy form of Do with KindFlow; use Do to bound
// the evaluation with a context (and to see validation errors — Flow maps an
// unknown S-location to 0).
func (e *Engine) Flow(table *iupt.Table, q indoor.SLocID, ts, te iupt.Time) (float64, Stats) {
	resp, err := e.Do(context.Background(), table, Query{Kind: KindFlow, SLocs: []indoor.SLocID{q}, Ts: ts, Te: te})
	if err != nil {
		return 0, Stats{}
	}
	return resp.Flow, resp.Stats
}

// flowWithOracle is Naive's per-location loop: it sums the presences of all
// (non-pruned) objects for q in ascending object order, computing each
// summary lazily on the calling goroutine. It gives up between objects once
// ctx is done; topkNaive then discards the value with the whole query.
func (e *Engine) flowWithOracle(ctx context.Context, oracle *presenceOracle, q indoor.SLocID) float64 {
	cell := e.space.CellOfSLoc(q)
	flow := 0.0
	for _, oid := range oracle.objects() {
		if ctx.Err() != nil {
			return 0
		}
		if _, ok := oracle.reduction(oid); !ok {
			continue
		}
		flow += oracle.summary(oid).Presence(cell, e.opts.Presence)
	}
	return flow
}

// Presence computes Φ_{ts,te}(q, o) for a single object (paper Equation 1),
// mainly useful for inspection and tests. It shares the engine's presence
// cache, so a Presence probe after a Flow or TopK over the same window is a
// cache hit. Presence is the uncancellable legacy form of Do with
// KindPresence.
func (e *Engine) Presence(table *iupt.Table, q indoor.SLocID, oid iupt.ObjectID, ts, te iupt.Time) float64 {
	resp, err := e.Do(context.Background(), table, Query{Kind: KindPresence, SLocs: []indoor.SLocID{q}, OID: oid, Ts: ts, Te: te})
	if err != nil {
		return 0
	}
	return resp.Flow
}
