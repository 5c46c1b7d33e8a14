// Package baseline implements the five comparison methods of the paper's
// evaluation (§5.1, §5.3.3): SC and SC-ρ (simple counting on positioning
// samples), MC (Monte-Carlo simulation over certain IUPT instances), SCC
// (semi-constrained RFID counting, after Ahmed et al.) and UR (uncertainty
// regions, after Lu et al.).
package baseline

import (
	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// SC is the Simple Counting method: for each positioning record it keeps
// only the (first) highest-probability sample and credits every query
// S-location containing that P-location. An object is counted at most once
// per S-location across the whole interval, consistent with the indoor flow
// definition (§5.1).
func SC(space *indoor.Space, table *iupt.Table, query []indoor.SLocID, ts, te iupt.Time) map[indoor.SLocID]float64 {
	return simpleCount(space, table, query, ts, te, func(x iupt.SampleSet) []indoor.PLocID {
		return []indoor.PLocID{x.MaxProbSample().Loc}
	})
}

// SCRho is the SC-ρ variant: every sample with probability at least rho is
// counted, so more samples and P-locations may be involved.
func SCRho(space *indoor.Space, table *iupt.Table, query []indoor.SLocID, ts, te iupt.Time, rho float64) map[indoor.SLocID]float64 {
	return simpleCount(space, table, query, ts, te, func(x iupt.SampleSet) []indoor.PLocID {
		var out []indoor.PLocID
		for _, s := range x {
			if s.Prob >= rho {
				out = append(out, s.Loc)
			}
		}
		return out
	})
}

func simpleCount(space *indoor.Space, table *iupt.Table, query []indoor.SLocID, ts, te iupt.Time,
	pick func(iupt.SampleSet) []indoor.PLocID) map[indoor.SLocID]float64 {

	inQuery := make(map[indoor.SLocID]bool, len(query))
	flows := make(map[indoor.SLocID]float64, len(query))
	for _, q := range query {
		inQuery[q] = true
		flows[q] = 0
	}
	type key struct {
		oid iupt.ObjectID
		sl  indoor.SLocID
	}
	counted := make(map[key]bool)
	for _, rec := range table.RecordsInRange(ts, te) {
		for _, loc := range pick(rec.Samples) {
			for _, sl := range space.SLocsContaining(loc) {
				if !inQuery[sl] {
					continue
				}
				k := key{rec.OID, sl}
				if !counted[k] {
					counted[k] = true
					flows[sl]++
				}
			}
		}
	}
	return flows
}
