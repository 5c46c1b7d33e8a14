package core

import (
	"context"

	"tkplq/internal/indoor"
)

// flowWithOracle is Naive's per-location loop: it sums the presences of all
// (non-pruned) objects for q in ascending position — ascending object id —
// computing each summary lazily on the calling goroutine. It gives up between
// objects once ctx is done; topkNaive then discards the value with the whole
// query.
func (e *Engine) flowWithOracle(ctx context.Context, oracle *presenceOracle, q indoor.SLocID) float64 {
	cell := e.space.CellOfSLoc(q)
	flow := 0.0
	for i := range oracle.win.OIDs {
		if ctx.Err() != nil {
			return 0
		}
		if sum := oracle.summary(i); sum != nil {
			flow += sum.Presence(cell, e.opts.Presence)
		}
	}
	return flow
}
