package experiments

import (
	"fmt"
	"slices"

	"tkplq/internal/iupt"
)

// synGrid measures methods on SYN over the points sw derives from the
// default query (the first value of each synParams sweep) over the default
// object count. scored attaches the ground truth of that same population.
func (c *Config) synGrid(methods []method, scored bool, sw sweep) (*grid, error) {
	ds, err := c.SyntheticDataset()
	if err != nil {
		return nil, err
	}
	p := c.synParams()
	base := point{table: ds.Table, k: p.ks[0], qFrac: p.qFracs[0], dt: p.dts[0]}
	if scored {
		base.truth = restrictTrajs(ds.Trajs, p.objects[defaultObjIdx])
	}
	return c.measure(ds, methods, base, sw)
}

// synVariantTable returns the SYN IUPT for a given T and µ, restricted to
// the default object count.
func (c *Config) synVariantTable(ds *Dataset, t iupt.Time, mu float64) (*iupt.Table, error) {
	full, err := c.synIUPT(ds, t, mu)
	if err != nil {
		return nil, err
	}
	return restrictObjects(full, c.synParams().objects[defaultObjIdx]), nil
}

// periodSweep varies the positioning period T at the default µ (F14a, F15).
func (c *Config) periodSweep(seed int64) sweep {
	return func(ds *Dataset, base point) ([]point, error) {
		ts := c.synParams().ts
		pts := stepped(base, len(ts), seed)
		for i, t := range ts {
			table, err := c.synVariantTable(ds, t, 5)
			if err != nil {
				return nil, err
			}
			pts[i].label, pts[i].table = fmt.Sprintf("T=%ds", t), table
		}
		return pts, nil
	}
}

// errorSweep varies the positioning error µ at the default T (F14b, F16).
func (c *Config) errorSweep(seed int64) sweep {
	return func(ds *Dataset, base point) ([]point, error) {
		mus := c.synParams().mus
		pts := stepped(base, len(mus), seed)
		for i, mu := range mus {
			table, err := c.synVariantTable(ds, 3, mu)
			if err != nil {
				return nil, err
			}
			pts[i].label, pts[i].table = fmt.Sprintf("µ=%gm", mu), table
		}
		return pts, nil
	}
}

// objectSweep varies |O| (F17, F20): point i runs on the first objects[i]
// objects of the default IUPT and, when base is scored, against the ground
// truth of those same objects.
func (c *Config) objectSweep(seed int64) sweep {
	return func(ds *Dataset, base point) ([]point, error) {
		full, err := c.synIUPT(ds, 3, 5)
		if err != nil {
			return nil, err
		}
		objects := c.synParams().objects
		pts := stepped(base, len(objects), seed)
		for i, n := range objects {
			pts[i].label, pts[i].table = fmt.Sprintf("|O|=%d", n), restrictObjects(full, n)
			if base.truth != nil {
				pts[i].truth = restrictTrajs(ds.Trajs, n)
			}
		}
		return pts, nil
	}
}

// synCost is one SYN running-time table of NL, BF, SC, SC-ρ and MC (F14,
// F17). The cost figures have always fixed one Monte-Carlo seed across
// their sweep — F14 the same one in both halves.
func (c *Config) synCost(id, param, note string, sw sweep, baseSeed int64) (Table, error) {
	g, err := c.synGrid(costMethods, false, func(ds *Dataset, base point) ([]point, error) {
		pts, err := sw(ds, base)
		for i := range pts {
			pts[i].baseSeed = baseSeed
		}
		return pts, err
	})
	if err != nil {
		return Table{}, err
	}
	return g.table(id, "Running time vs "+param+" (SYN)", cellTime, note), nil
}

// runFigure14 reproduces Figure 14: running time vs T (a) and vs µ (b) for
// NL, BF, SC, SC-ρ and MC on synthetic data.
func runFigure14(cfg *Config) ([]Table, error) {
	ta, err := cfg.synCost("F14a", "T", "expected shape: NL/BF drop as T grows; MC dominates all costs",
		cfg.periodSweep(cfg.Seed+70), cfg.Seed+71)
	if err != nil {
		return nil, err
	}
	tb, err := cfg.synCost("F14b", "µ", "expected shape: NL/BF drop as µ grows; MC dominates all costs",
		cfg.errorSweep(cfg.Seed+80), cfg.Seed+71)
	if err != nil {
		return nil, err
	}
	return []Table{ta, tb}, nil
}

// runFigure17 reproduces Figure 17: running time vs |O| for NL, BF, SC,
// SC-ρ and MC.
func runFigure17(cfg *Config) ([]Table, error) {
	tbl, err := cfg.synCost("F17", "|O|", "expected shape: every method grows with |O|; BF < NL; MC far above",
		cfg.objectSweep(cfg.Seed+110), cfg.Seed+111)
	if err != nil {
		return nil, err
	}
	return []Table{tbl}, nil
}

// synEffectiveness is Figures 15, 16 and 18-21: τ (a) and recall (b) of BF,
// SC, SC-ρ and MC.
func (c *Config) synEffectiveness(id, param string, sw sweep) ([]Table, error) {
	g, err := c.synGrid(scoredMethods, true, sw)
	if err != nil {
		return nil, err
	}
	return g.effectiveness(id, param, "SYN", "expected shape: BF best throughout; SC/SC-rho degrade fastest"), nil
}

// runFigure15: effectiveness vs T.
func runFigure15(cfg *Config) ([]Table, error) {
	return cfg.synEffectiveness("F15", "T", cfg.periodSweep(cfg.Seed+90))
}

// runFigure16: effectiveness vs µ.
func runFigure16(cfg *Config) ([]Table, error) {
	return cfg.synEffectiveness("F16", "µ", cfg.errorSweep(cfg.Seed+100))
}

// runFigure18: effectiveness vs k. The SYN sweeps list their default value
// first, so F18, F19 and F21 sort them into axis order.
func runFigure18(cfg *Config) ([]Table, error) {
	return cfg.synEffectiveness("F18", "k", kSweep(slices.Sorted(slices.Values(cfg.synParams().ks)), cfg.Seed+120))
}

// runFigure19: effectiveness vs |Q|.
func runFigure19(cfg *Config) ([]Table, error) {
	return cfg.synEffectiveness("F19", "|Q|", qSweep(slices.Sorted(slices.Values(cfg.synParams().qFracs)), cfg.Seed+130))
}

// runFigure20: effectiveness vs |O|.
func runFigure20(cfg *Config) ([]Table, error) {
	return cfg.synEffectiveness("F20", "|O|", cfg.objectSweep(cfg.Seed+140))
}

// runFigure21: effectiveness vs Δt.
func runFigure21(cfg *Config) ([]Table, error) {
	return cfg.synEffectiveness("F21", "Δt", dtSweep(slices.Sorted(slices.Values(cfg.synParams().dts)), cfg.Seed+150))
}
