package core

import (
	"context"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// TopKDensity answers the size-aware variant the paper's §7 suggests as
// future work ("study historical densities for indoor locations by
// considering the impact of their sizes"): S-locations are ranked by flow
// per square meter instead of raw flow, so a packed kiosk can outrank a
// half-empty atrium. Result.Flow carries the density (objects/m²).
//
// Densities are derived from the shared pass (every location's flow is
// needed, so Best-First's partial evaluation cannot help).
// Concurrent identical calls share one evaluation (Options.DisableCoalescing,
// Stats.Coalesced).
// TopKDensity is the uncancellable legacy form of Do with KindDensity; use
// Do to bound the evaluation with a context.
func (e *Engine) TopKDensity(table *iupt.Table, q []indoor.SLocID, k int, ts, te iupt.Time) ([]Result, Stats, error) {
	resp, err := e.Do(context.Background(), table, Query{Kind: KindDensity, K: k, Ts: ts, Te: te, SLocs: q})
	if err != nil {
		return nil, Stats{}, err
	}
	return resp.Results, resp.Stats, nil
}

// densityRank divides each location's flow by its floor area and re-ranks,
// dropping zero-area locations. The finisher is its one caller.
func (e *Engine) densityRank(full []Result, k int) []Result {
	out := make([]Result, 0, len(full))
	for _, r := range full {
		area := e.SLocArea(r.SLoc)
		if area <= 0 {
			continue
		}
		out = append(out, Result{SLoc: r.SLoc, Flow: r.Flow / area})
	}
	return rankTopK(out, k)
}

// SLocArea returns the S-location's floor area in square meters: the sum of
// its partitions' areas (not the MBR, which overestimates L-shaped
// locations).
func (e *Engine) SLocArea(s indoor.SLocID) float64 {
	area := 0.0
	for _, pid := range e.space.SLocation(s).Partitions {
		area += e.space.Partition(pid).Bounds.Area()
	}
	return area
}
