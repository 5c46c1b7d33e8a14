package experiments

import (
	"fmt"

	"tkplq/internal/iupt"
	"tkplq/internal/sim"
)

// Dataset bundles a building, ground-truth trajectories and the derived
// IUPT, so experiments can re-derive variants (different mss, T, µ, |O|) from
// the same ground truth.
type Dataset struct {
	Building *sim.Building
	Trajs    []sim.Trajectory
	Table    *iupt.Table

	// Span is the simulated duration in seconds.
	Span iupt.Time
}

// rdParams are the real-data analog generation parameters per scale
// (paper §5.2: 35 users, 150 min, T = 3 s, mss = 4, ~2.1 m error).
type rdParams struct {
	objects  int
	duration iupt.Time
	mu       float64
	// dts are the Δt sweep values (seconds); dts[0] is the default Δt.
	dts []iupt.Time
}

func (c *Config) rdParams() rdParams {
	switch c.Scale {
	case Paper, Medium:
		return rdParams{objects: 35, duration: 9000, mu: 2.1,
			dts: []iupt.Time{1800, 3600, 5400}}
	default:
		return rdParams{objects: 15, duration: 2700, mu: 2.1,
			dts: []iupt.Time{420, 900, 1500}}
	}
}

// synParams are the synthetic dataset parameters per scale (paper §5.3:
// 5-floor 120x120 building, 2.5K..10K objects, 2 h span, T = 3, µ = 5).
type synParams struct {
	building sim.BuildingConfig
	objects  []int // sweep; objects[defaultObjIdx] is the default
	duration iupt.Time
	ts       []iupt.Time // T sweep (first = default handled by pos cfg)
	mus      []float64
	dts      []iupt.Time // Δt sweep; dts[0] default
	ks       []int       // k sweep; ks[0] default
	qFracs   []float64   // |Q| fractions; qFracs[0] default
}

const defaultObjIdx = 1

func (c *Config) synParams() synParams {
	switch c.Scale {
	case Paper:
		return synParams{
			building: sim.PaperScaleBuildingConfig(),
			objects:  []int{2500, 5000, 7500, 10000},
			duration: 7200,
			ts:       []iupt.Time{1, 3, 5, 7},
			mus:      []float64{3, 5, 7},
			dts:      []iupt.Time{1800, 900, 3600, 7200},
			ks:       []int{10, 5, 15, 20},
			qFracs:   []float64{0.08, 0.04, 0.12},
		}
	case Medium:
		b := sim.DefaultBuildingConfig()
		b.Floors = 3
		b.RoomsPerRow = 4
		return synParams{
			building: b,
			objects:  []int{100, 200, 300, 400},
			duration: 7200,
			ts:       []iupt.Time{1, 3, 5, 7},
			mus:      []float64{3, 5, 7},
			dts:      []iupt.Time{1800, 900, 3600, 7200},
			ks:       []int{10, 5, 15, 20},
			qFracs:   []float64{0.08, 0.04, 0.12},
		}
	default:
		return synParams{
			building: sim.DefaultBuildingConfig(),
			objects:  []int{10, 20, 30, 40},
			duration: 2400,
			ts:       []iupt.Time{1, 3, 5, 7},
			mus:      []float64{3, 5, 7},
			dts:      []iupt.Time{600, 300, 1200, 2400},
			ks:       []int{5, 3, 10, 15},
			qFracs:   []float64{0.20, 0.10, 0.30},
		}
	}
}

// datasetCache memoizes generated datasets within one Config so multiple
// experiments share the expensive simulation work.
type datasetCache struct {
	rd       *Dataset
	syn      *Dataset
	synIUPTs map[string]*iupt.Table
}

func (c *Config) ensureCache() *datasetCache {
	if c.cache == nil {
		c.cache = &datasetCache{synIUPTs: make(map[string]*iupt.Table)}
	}
	return c.cache
}

// RealDataset builds (and caches) the RD analog.
func (c *Config) RealDataset() (*Dataset, error) {
	cache := c.ensureCache()
	if cache.rd != nil {
		return cache.rd, nil
	}
	p := c.rdParams()
	b, err := sim.RealDataFloor()
	if err != nil {
		return nil, err
	}
	moveCfg := sim.MovementConfig{
		Objects:     p.objects,
		Duration:    p.duration,
		MaxSpeed:    1.0,
		MinDwell:    120,
		MaxDwell:    600,
		MinLifespan: p.duration / 2,
		MaxLifespan: p.duration,
		Seed:        c.Seed + 101,
	}
	trajs, err := sim.SimulateMovement(b, moveCfg)
	if err != nil {
		return nil, err
	}
	posCfg := sim.PositioningConfig{
		MaxPeriod: 3, MSS: 4, ErrorRadius: p.mu, Gamma: 0.2, Seed: c.Seed + 102,
	}
	table, err := sim.GenerateIUPT(b, trajs, posCfg)
	if err != nil {
		return nil, err
	}
	cache.rd = &Dataset{Building: b, Trajs: trajs, Table: table, Span: p.duration}
	return cache.rd, nil
}

// SyntheticDataset builds (and caches) the SYN dataset at the default
// object count with default positioning (T = 3, µ = 5, mss = 4).
func (c *Config) SyntheticDataset() (*Dataset, error) {
	cache := c.ensureCache()
	if cache.syn != nil {
		return cache.syn, nil
	}
	p := c.synParams()
	b, err := sim.Generate(p.building)
	if err != nil {
		return nil, err
	}
	moveCfg := sim.MovementConfig{
		Objects:     p.objects[len(p.objects)-1], // simulate the maximum once
		Duration:    p.duration,
		MaxSpeed:    1.0,
		MinDwell:    300,
		MaxDwell:    1800,
		MinLifespan: p.duration / 4,
		MaxLifespan: p.duration,
		Seed:        c.Seed + 201,
	}
	trajs, err := sim.SimulateMovement(b, moveCfg)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Building: b, Trajs: trajs, Span: p.duration}
	table, err := c.synIUPT(ds, 3, 5)
	if err != nil {
		return nil, err
	}
	ds.Table = restrictObjects(table, p.objects[defaultObjIdx])
	cache.syn = ds
	return ds, nil
}

// synIUPT generates (and caches) an IUPT over the full SYN trajectory set
// for a given positioning period T and error µ.
func (c *Config) synIUPT(ds *Dataset, t iupt.Time, mu float64) (*iupt.Table, error) {
	cache := c.ensureCache()
	key := fmt.Sprintf("T=%d,mu=%g", t, mu)
	if tb, ok := cache.synIUPTs[key]; ok {
		return tb, nil
	}
	posCfg := sim.PositioningConfig{
		MaxPeriod: t, MSS: 4, ErrorRadius: mu, Gamma: 0.2, Seed: c.Seed + 202,
	}
	tb, err := sim.GenerateIUPT(ds.Building, ds.Trajs, posCfg)
	if err != nil {
		return nil, err
	}
	cache.synIUPTs[key] = tb
	return tb, nil
}

// restrictObjects filters the table down to objects with id <= n. Objects
// are simulated independently, so the prefix of a larger fleet is exactly
// the fleet a smaller simulation would have produced.
func restrictObjects(t *iupt.Table, n int) *iupt.Table {
	var kept []iupt.Record
	for _, rec := range t.SortedRecords() {
		if int(rec.OID) <= n {
			kept = append(kept, rec)
		}
	}
	out := iupt.NewTable()
	out.Append(kept...)
	return out
}

// restrictTrajs filters trajectories to objects with id <= n.
func restrictTrajs(trajs []sim.Trajectory, n int) []sim.Trajectory {
	var out []sim.Trajectory
	for _, tr := range trajs {
		if int(tr.OID) <= n {
			out = append(out, tr)
		}
	}
	return out
}
