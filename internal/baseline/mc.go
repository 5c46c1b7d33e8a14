package baseline

import (
	"context"
	"math/rand"

	"tkplq/internal/core"
	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// MCConfig parametrizes the Monte-Carlo baseline.
type MCConfig struct {
	// Rounds is the number of simulated certain-IUPT instances (the paper
	// tunes 900 on real data, 25000 on synthetic).
	Rounds int
	// Seed drives the per-round sampling.
	Seed int64
}

// MC is the Monte-Carlo method (§5.1): each round materializes a certain
// IUPT instance by sampling one P-location per record according to the
// sample probabilities, constructs each object's (single) path, discards it
// if the indoor topology invalidates any step, and otherwise credits each
// query location with the path's pass probability. Flows are averaged over
// rounds.
func MC(space *indoor.Space, table *iupt.Table, query []indoor.SLocID, ts, te iupt.Time, cfg MCConfig) map[indoor.SLocID]float64 {
	if cfg.Rounds < 1 {
		cfg.Rounds = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	eng := core.NewEngine(space, core.Options{DisableReduction: true})

	// Objects in ascending id; a background ctx cannot cancel the read.
	w, _ := table.Window(context.Background(), ts, te)

	acc := make(map[indoor.SLocID]float64, len(query))
	for _, q := range query {
		acc[q] = 0
	}
	certain := make([]iupt.SampleSet, 0, 64)
	for round := 0; round < cfg.Rounds; round++ {
		for _, seq := range w.Seqs {
			certain = certain[:0]
			for _, ts := range seq {
				certain = append(certain, iupt.SampleSet{
					{Loc: rouletteSample(rng, ts.Samples), Prob: 1.0},
				})
			}
			// A certain sequence has exactly one candidate path; the
			// summary is zero if topology invalidates it.
			sum, _ := eng.Summarize(certain)
			if sum.ValidMass == 0 {
				continue
			}
			for _, q := range query {
				acc[q] += sum.Presence(space.CellOfSLoc(q), core.NormalizedValid)
			}
		}
	}
	inv := 1.0 / float64(cfg.Rounds)
	for q := range acc {
		acc[q] *= inv
	}
	return acc
}

// rouletteSample draws one P-location proportionally to sample
// probabilities.
func rouletteSample(rng *rand.Rand, x iupt.SampleSet) indoor.PLocID {
	r := rng.Float64()
	cum := 0.0
	for _, s := range x {
		cum += s.Prob
		if r <= cum {
			return s.Loc
		}
	}
	return x[len(x)-1].Loc
}
