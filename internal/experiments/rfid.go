package experiments

import (
	"fmt"
	"slices"

	"tkplq/internal/baseline"
	"tkplq/internal/core"
	"tkplq/internal/eval"
	"tkplq/internal/sim"
)

// runTable7 reproduces Table 7: Kendall τ of SCC, UR and BF across k and
// |Q| on synthetic data with an RFID tracking substrate (readers at doors,
// 3 m non-overlapping ranges).
func runTable7(cfg *Config) ([]Table, error) {
	ds, err := cfg.SyntheticDataset()
	if err != nil {
		return nil, err
	}
	p := cfg.synParams()
	trajs := restrictTrajs(ds.Trajs, p.objects[defaultObjIdx])

	rfidCfg := sim.DefaultRFIDConfig()
	rfidCfg.Seed = cfg.Seed + 160
	dep, err := sim.DeployReaders(ds.Building, rfidCfg)
	if err != nil {
		return nil, err
	}
	recs := sim.GenerateRFID(ds.Building, dep, trajs, rfidCfg)

	ks, fracs := slices.Sorted(slices.Values(p.ks)), slices.Sorted(slices.Values(p.qFracs))
	dt := p.dts[0]

	header := []string{"k"}
	for _, f := range fracs {
		for _, m := range []string{"SCC", "UR", "BF"} {
			header = append(header, fmt.Sprintf("%s@%.0f%%", m, f*100))
		}
	}
	tbl := Table{
		ID:     "T7",
		Title:  fmt.Sprintf("Kendall tau: SCC vs UR vs BF (SYN, %d readers, %d RFID records)", len(dep.Readers), len(recs)),
		Header: header,
		Notes: []string{
			"expected shape (paper Table 7): UR lowest everywhere; SCC competitive",
			"at small |Q| but degrading as |Q| grows; BF consistently high",
		},
	}

	// SCC and UR consume the RFID records, not an IUPT, so T7 is the one
	// table outside Config.measure; it scores through the same agg.
	urCfg := baseline.DefaultURConfig()
	for _, k := range ks {
		row := []string{fmt.Sprintf("%d", k)}
		for _, frac := range fracs {
			var scc, ur, bf agg
			for _, d := range makeDraws(ds, frac, dt, cfg.queries(), cfg.Seed+170+int64(k)) {
				tr := truthTopK(ds, trajs, d, k)
				sccRes := eval.TopKOf(baseline.SCC(ds.Building.Space, dep, recs, d.Q, d.ts, d.te), k)
				scc = append(scc, methodRun{Res: sccRes, Score: eval.Effectiveness(sccRes, tr)})
				urRes := eval.TopKOf(baseline.UR(ds.Building.Space, dep, recs, d.Q, d.ts, d.te, urCfg), k)
				ur = append(ur, methodRun{Res: urRes, Score: eval.Effectiveness(urRes, tr)})
				r, err := cfg.runExact(core.Options{}, ds, ds.Table, d, k, core.AlgoBestFirst)
				if err != nil {
					return nil, err
				}
				r.Score = eval.Effectiveness(r.Res, tr)
				bf = append(bf, r)
			}
			row = append(row, cellTau(scc), cellTau(ur), cellTau(bf))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return []Table{tbl}, nil
}

// runAblationEngines is ablation A1: path enumeration vs the DP engine on
// growing Δt, quantifying why the DP engine is the default.
func runAblationEngines(cfg *Config) ([]Table, error) {
	g, err := cfg.rdGrid([]method{
		{name: "enum", opts: core.Options{Engine: core.EngineEnum}, algo: core.AlgoNestedLoop},
		{name: "dp", opts: core.Options{Engine: core.EngineDP}, algo: core.AlgoNestedLoop},
	}, false, dtSweep(cfg.rdParams().dts, cfg.Seed+180))
	if err != nil {
		return nil, err
	}
	tbl := g.table("A1", "Ablation: enumeration vs DP engine, NL search (RD analog)", cellTime,
		"enum materializes the paper's path sets (budget-capped, falls back to DP);",
		"dp computes identical presences in polynomial time — see DESIGN.md §4")
	tbl.Header[0] = "engine"
	pathsRow, fallbackRow := []string{"enum paths"}, []string{"enum fallbacks"}
	for _, a := range g.cells[0] {
		pathsRow = append(pathsRow, fmt.Sprint(a.total(func(s *core.Stats) int64 { return s.PathsEnumerated })))
		fallbackRow = append(fallbackRow, fmt.Sprint(a.total(func(s *core.Stats) int64 { return int64(s.BudgetFallbacks) })))
	}
	tbl.Rows = append(tbl.Rows, pathsRow, fallbackRow)
	return []Table{tbl}, nil
}

// runAblationReduction is ablation A2: the contribution of each reduction
// stage (none / intra only / inter only / full) to time, data volume and
// result agreement with the fully reduced run.
func runAblationReduction(cfg *Config) ([]Table, error) {
	nl := core.AlgoNestedLoop
	g, err := cfg.rdGrid([]method{
		{name: "full", algo: nl},
		{name: "intra-only", opts: core.Options{DisableInterMerge: true}, algo: nl},
		{name: "inter-only", opts: core.Options{DisableIntraMerge: true}, algo: nl},
		{name: "none (ORG)", opts: core.Options{DisableReduction: true}, algo: nl},
	}, false, onePoint(cfg.Seed+190, 0))
	if err != nil {
		return nil, err
	}
	tbl := Table{
		ID:     "A2",
		Title:  "Ablation: data reduction stages, NL search (RD analog)",
		Header: []string{"variant", "time", "sets kept", "pruning", "tau vs full"},
		Notes: []string{
			"sets kept = reduced/original sample sets; intra-merge is lossless,",
			"inter-merge trades exactness for volume (paper §3.2)",
		},
	}
	full := g.cells[0][0] // the reference ranking, per draw
	for mi, m := range g.methods {
		a := g.cells[mi][0]
		var tauVsFull float64
		for di, r := range a {
			tauVsFull += eval.KendallTau(r.Res, full[di].Res)
		}
		ratio := "-"
		if orig := a.total(func(s *core.Stats) int64 { return s.SampleSetsOriginal }); orig > 0 {
			kept := a.total(func(s *core.Stats) int64 { return s.SampleSetsReduced })
			ratio = fpct(float64(kept) / float64(orig))
		}
		tbl.Rows = append(tbl.Rows, []string{
			m.name, cellTime(a), ratio, cellPrune(a), f3(tauVsFull / float64(len(a))),
		})
	}
	return []Table{tbl}, nil
}
