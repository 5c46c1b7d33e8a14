package experiments

import (
	"fmt"

	"tkplq/internal/core"
	"tkplq/internal/sim"
)

// rdGrid measures methods on RD over the points sw derives from the default
// query: k = 3, |Q| = 60% of the 14 S-locations, Δt = the scale's default
// (paper: 30 min). scored attaches the ground truth of the full population.
func (c *Config) rdGrid(methods []method, scored bool, sw sweep) (*grid, error) {
	ds, err := c.RealDataset()
	if err != nil {
		return nil, err
	}
	base := point{table: ds.Table, k: 3, qFrac: 0.6, dt: c.rdParams().dts[0]}
	if scored {
		base.truth = ds.Trajs
	}
	return c.measure(ds, methods, base, sw)
}

// The RD sweeps of k (F8, F11) and of the |Q| fraction (F9, F12).
var (
	rdKs     = []int{1, 2, 3, 4, 5, 6, 7, 8}
	rdQFracs = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
)

// runTable4 reproduces Table 4: every method in the default setting, with
// running time, pruning ratio and effectiveness, including the -ORG
// variants without data reduction.
func runTable4(cfg *Config) ([]Table, error) {
	org := core.Options{DisableReduction: true}
	g, err := cfg.rdGrid([]method{
		methodSC,
		{name: "SC-rho(0.25)", baseline: "SC-rho"},
		{name: fmt.Sprintf("MC(%d)", cfg.mcRounds()), baseline: "MC"},
		methodBF,
		methodNL,
		{name: "Naive", algo: core.AlgoNaive},
		{name: "BF-ORG", opts: org, algo: core.AlgoBestFirst},
		{name: "NL-ORG", opts: org, algo: core.AlgoNestedLoop},
		{name: "Naive-ORG", opts: org, algo: core.AlgoNaive},
	}, true, onePoint(cfg.Seed+1, cfg.Seed+2))
	if err != nil {
		return nil, err
	}

	p := g.points[0]
	tbl := Table{
		ID:     "T4",
		Title:  "Performance comparison in default setting (RD analog)",
		Header: []string{"method", "time", "pruning", "tau", "recall"},
		Notes: []string{
			"expected shape (paper Table 4): SC/SC-rho fastest but weakest tau/recall;",
			"BF < NL < Naive on time; -ORG variants much slower; MC slowest per quality;",
			fmt.Sprintf("k=%d |Q|=%.0f%% Δt=%ds, %d random queries", p.k, 60.0, p.dt, cfg.queries()),
		},
	}
	for mi, m := range g.methods {
		a := g.cells[mi][0]
		pr := "-"
		if m.baseline == "" {
			pr = cellPrune(a)
		}
		tbl.Rows = append(tbl.Rows, []string{m.name, cellTime(a), pr, cellTau(a), cellRecall(a)})
	}
	return []Table{tbl}, nil
}

// mssSweep runs the default query over the table truncated to mss = 1..4
// samples per record (T5, F7). Every point shares one draw list and one
// Monte-Carlo seed, so a column differs from its neighbour in mss alone.
func mssSweep(drawSeed, baseSeed int64) sweep {
	return func(ds *Dataset, base point) ([]point, error) {
		base.drawSeed, base.baseSeed = drawSeed, baseSeed
		pts := make([]point, 4)
		for i := range pts {
			mss := i + 1
			pts[i] = base
			pts[i].label = fmt.Sprintf("mss=%d", mss)
			if mss < 4 { // RD is generated with mss = 4
				pts[i].table = sim.TruncateSamples(ds.Table, mss)
			}
		}
		return pts, nil
	}
}

// runTable5 reproduces Table 5: running time vs mss for BF, SC, SC-ρ, MC.
func runTable5(cfg *Config) ([]Table, error) {
	g, err := cfg.rdGrid(scoredMethods, false, mssSweep(cfg.Seed+3, cfg.Seed+4))
	if err != nil {
		return nil, err
	}
	return []Table{g.table("T5", "Running time vs mss (RD analog)", cellTime,
		"expected shape (paper Table 5): all methods slow down with mss;",
		"BF grows fastest (larger path sets), MC orders of magnitude above all")}, nil
}

// runFigure7 reproduces Figure 7: effectiveness (τ and recall) vs mss.
func runFigure7(cfg *Config) ([]Table, error) {
	g, err := cfg.rdGrid(scoredMethods, true, mssSweep(cfg.Seed+5, cfg.Seed+6))
	if err != nil {
		return nil, err
	}
	return g.effectiveness("F7", "mss", "RD analog",
		"expected shape (paper Fig. 7): SC flat; SC-rho, MC, BF all improve",
		"with more samples; BF highest from mss>=2"), nil
}

// rdEfficiency is Figures 8-10: NL vs BF running time (a) and pruning
// ratio (b).
func (c *Config) rdEfficiency(id, param string, sw sweep) ([]Table, error) {
	g, err := c.rdGrid([]method{methodNL, methodBF}, false, sw)
	if err != nil {
		return nil, err
	}
	return []Table{
		g.table(id+"a", "Running time vs "+param+" (RD analog)", cellTime,
			"expected shape: BF at or below NL except k→|Q|; BF pruning ≥ NL pruning"),
		g.table(id+"b", "Pruning ratio vs "+param+" (RD analog)", cellPrune),
	}, nil
}

// runFigure8: efficiency vs k.
func runFigure8(cfg *Config) ([]Table, error) {
	return cfg.rdEfficiency("F8", "k", kSweep(rdKs, cfg.Seed+10))
}

// runFigure9: efficiency vs |Q|.
func runFigure9(cfg *Config) ([]Table, error) {
	return cfg.rdEfficiency("F9", "|Q|", qSweep(rdQFracs, cfg.Seed+20))
}

// runFigure10: efficiency vs Δt.
func runFigure10(cfg *Config) ([]Table, error) {
	return cfg.rdEfficiency("F10", "Δt", dtSweep(cfg.rdParams().dts, cfg.Seed+30))
}

// rdEffectiveness is Figures 11-13: τ (a) and recall (b) of BF and the
// three baselines.
func (c *Config) rdEffectiveness(id, param string, sw sweep) ([]Table, error) {
	g, err := c.rdGrid(scoredMethods, true, sw)
	if err != nil {
		return nil, err
	}
	return g.effectiveness(id, param, "RD analog",
		"expected shape: BF highest throughout; SC/SC-rho far below; MC between"), nil
}

// runFigure11: effectiveness vs k.
func runFigure11(cfg *Config) ([]Table, error) {
	return cfg.rdEffectiveness("F11", "k", kSweep(rdKs, cfg.Seed+40))
}

// runFigure12: effectiveness vs |Q|.
func runFigure12(cfg *Config) ([]Table, error) {
	return cfg.rdEffectiveness("F12", "|Q|", qSweep(rdQFracs, cfg.Seed+50))
}

// runFigure13: effectiveness vs Δt.
func runFigure13(cfg *Config) ([]Table, error) {
	return cfg.rdEffectiveness("F13", "Δt", dtSweep(cfg.rdParams().dts, cfg.Seed+60))
}
