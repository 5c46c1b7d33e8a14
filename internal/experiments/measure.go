package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"tkplq/internal/baseline"
	"tkplq/internal/core"
	"tkplq/internal/eval"
	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/sim"
)

// queryDraw is one random TkPLQ instance: a query set and a time interval,
// mirroring the paper's random query generation (§5.2: random |Q| fraction
// of S-locations, random ts for a given Δt).
type queryDraw struct {
	Q      []indoor.SLocID
	ts, te iupt.Time
}

// makeDraws produces n random query instances over the dataset span.
func makeDraws(ds *Dataset, qFrac float64, dt iupt.Time, n int, seed int64) []queryDraw {
	rng := rand.New(rand.NewSource(seed))
	total := ds.Building.Space.NumSLocations()
	qSize := min(max(int(float64(total)*qFrac+0.5), 1), total)
	out := make([]queryDraw, n)
	for i := range out {
		perm := rng.Perm(total)[:qSize]
		q := make([]indoor.SLocID, qSize)
		for j, p := range perm {
			q[j] = indoor.SLocID(p)
		}
		maxStart := ds.Span - dt
		var ts iupt.Time
		if maxStart > 0 {
			ts = iupt.Time(rng.Int63n(int64(maxStart)))
		}
		out[i] = queryDraw{Q: q, ts: ts, te: ts + dt}
	}
	return out
}

// methodRun is one measured query execution and its score against the
// draw's ground truth (zero at points that carry none).
type methodRun struct {
	Seconds float64
	Stats   core.Stats
	Res     []core.Result
	Score   eval.Metrics
}

// runExact times one TkPLQ execution of the exact engine through the
// context-aware Do API (so canceling Config.Ctx aborts mid-query). A fresh
// engine per draw keeps the window cache cold, and the worker pool
// defaults to 1 (not GOMAXPROCS) unless Config.Workers opts in — so
// recorded times stay comparable with the paper's single-threaded
// evaluation and with numbers measured before the sharded engine existed.
func (c *Config) runExact(opts core.Options, ds *Dataset, table *iupt.Table, d queryDraw, k int, algo core.Algorithm) (methodRun, error) {
	if opts.Workers == 0 {
		opts.Workers = max(c.Workers, 1)
	}
	ctx := c.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	eng := core.NewEngine(ds.Building.Space, opts)
	start := time.Now()
	resp, err := eng.Do(ctx, table, core.Query{
		Kind: core.KindTopK, Algorithm: algo, K: k, Ts: d.ts, Te: d.te, SLocs: d.Q,
	})
	if err != nil {
		return methodRun{}, err
	}
	return methodRun{Seconds: time.Since(start).Seconds(), Stats: resp.Stats, Res: resp.Results}, nil
}

// runBaseline times one baseline execution, ranking its flow map.
func runBaseline(name string, ds *Dataset, table *iupt.Table, d queryDraw, k int, mcRounds int, seed int64) methodRun {
	start := time.Now()
	var flows map[indoor.SLocID]float64
	switch name {
	case "SC":
		flows = baseline.SC(ds.Building.Space, table, d.Q, d.ts, d.te)
	case "SC-rho":
		flows = baseline.SCRho(ds.Building.Space, table, d.Q, d.ts, d.te, 0.25)
	case "MC":
		flows = baseline.MC(ds.Building.Space, table, d.Q, d.ts, d.te,
			baseline.MCConfig{Rounds: mcRounds, Seed: seed})
	default:
		panic("experiments: unknown baseline " + name)
	}
	res := eval.TopKOf(flows, k)
	return methodRun{Seconds: time.Since(start).Seconds(), Res: res}
}

// method is one curve of a figure: a name and how it answers one draw — a
// named baseline, or an exact engine run with its options and algorithm.
type method struct {
	name     string
	baseline string // "SC", "SC-rho" or "MC"; empty selects the exact engine
	opts     core.Options
	algo     core.Algorithm
}

// The curves the figures share. Adding a curve to a figure is one more
// method in its list.
var (
	methodBF    = method{name: "BF", algo: core.AlgoBestFirst}
	methodNL    = method{name: "NL", algo: core.AlgoNestedLoop}
	methodSC    = method{name: "SC", baseline: "SC"}
	methodSCRho = method{name: "SC-rho", baseline: "SC-rho"}
	methodMC    = method{name: "MC", baseline: "MC"}

	// scoredMethods are the curves of every τ/recall figure, costMethods
	// those of the SYN running-time figures.
	scoredMethods = []method{methodBF, methodSC, methodSCRho, methodMC}
	costMethods   = []method{methodNL, methodBF, methodSC, methodSCRho, methodMC}
)

// truthTopK ranks the ground-truth flows of a draw over the exact
// trajectories of trajs.
func truthTopK(ds *Dataset, trajs []sim.Trajectory, d queryDraw, k int) []core.Result {
	return eval.TopKOf(eval.GroundTruthFlows(ds.Building.Space, trajs, d.Q, d.ts, d.te), k)
}

// point is one column of a figure: a query shape over one table.
type point struct {
	label string
	table *iupt.Table
	k     int
	qFrac float64
	dt    iupt.Time
	// truth is the population every run at this point is scored against (τ
	// and recall): the trajectories the table was derived from. nil on
	// figures that print only time and pruning.
	truth []sim.Trajectory
	// drawSeed seeds the point's random queries, baseSeed its Monte-Carlo
	// baseline. They are data, not derived by the runner: the figures'
	// offsets from Config.Seed are not uniform (stepped per point, one draw
	// list, one MC seed per sweep) and the golden file pins their numbers.
	drawSeed, baseSeed int64
}

// sweep derives a figure's points from its dataset's default point by
// varying one parameter. Adding a figure is a sweep (or a list of points)
// and a choice of methods; see rdGrid and synGrid.
type sweep func(ds *Dataset, base point) ([]point, error)

// stepped returns n copies of base where point i draws its queries from
// seed+i and seeds Monte-Carlo with seed+i+1 — the offsets of every swept
// figure but T5/F7 (mssSweep) and the cost figures (synCost).
func stepped(base point, n int, seed int64) []point {
	pts := make([]point, n)
	for i := range pts {
		pts[i] = base
		pts[i].drawSeed, pts[i].baseSeed = seed+int64(i), seed+int64(i)+1
	}
	return pts
}

// onePoint is the sweep of the tables that run the default query alone
// (T4, A2).
func onePoint(drawSeed, baseSeed int64) sweep {
	return func(_ *Dataset, base point) ([]point, error) {
		base.drawSeed, base.baseSeed = drawSeed, baseSeed
		return []point{base}, nil
	}
}

// kSweep varies k (F8, F11, F18).
func kSweep(ks []int, seed int64) sweep {
	return func(_ *Dataset, base point) ([]point, error) {
		pts := stepped(base, len(ks), seed)
		for i, k := range ks {
			pts[i].label, pts[i].k = fmt.Sprintf("k=%d", k), k
		}
		return pts, nil
	}
}

// qSweep varies the |Q| fraction (F9, F12, F19).
func qSweep(fracs []float64, seed int64) sweep {
	return func(_ *Dataset, base point) ([]point, error) {
		pts := stepped(base, len(fracs), seed)
		for i, f := range fracs {
			pts[i].label, pts[i].qFrac = fmt.Sprintf("|Q|=%.0f%%", f*100), f
		}
		return pts, nil
	}
}

// dtSweep varies Δt (F10, F13, F21, A1).
func dtSweep(dts []iupt.Time, seed int64) sweep {
	return func(_ *Dataset, base point) ([]point, error) {
		pts := stepped(base, len(dts), seed)
		for i, dt := range dts {
			pts[i].label, pts[i].dt = fmt.Sprintf("Δt=%dm", dt/60), dt
		}
		return pts, nil
	}
}

// grid is what measure returns: cells[m][p] holds methods[m]'s runs at
// points[p].
type grid struct {
	methods []method
	points  []point
	cells   [][]agg
}

// measure is the package's one method × point × draw nest: at every point
// sw derives from base it draws Config.queries() random queries and has
// every method answer each of them, scored against the point's ground truth
// when it has one. Runs are independent (a fresh engine per run), so the
// order of the nest cannot show in any cell.
func (c *Config) measure(ds *Dataset, methods []method, base point, sw sweep) (*grid, error) {
	points, err := sw(ds, base)
	if err != nil {
		return nil, err
	}
	g := &grid{methods: methods, points: points, cells: make([][]agg, len(methods))}
	for mi := range g.cells {
		g.cells[mi] = make([]agg, len(points))
	}
	for pi, p := range points {
		for _, d := range makeDraws(ds, p.qFrac, p.dt, c.queries(), p.drawSeed) {
			var truth []core.Result
			if p.truth != nil {
				truth = truthTopK(ds, p.truth, d, p.k)
			}
			for mi, m := range methods {
				var r methodRun
				if m.baseline != "" {
					r = runBaseline(m.baseline, ds, p.table, d, p.k, c.mcRounds(), p.baseSeed)
				} else if r, err = c.runExact(m.opts, ds, p.table, d, p.k, m.algo); err != nil {
					return nil, err
				}
				if p.truth != nil {
					r.Score = eval.Effectiveness(r.Res, truth)
				}
				g.cells[mi][pi] = append(g.cells[mi][pi], r)
			}
		}
	}
	if c.onGrid != nil {
		c.onGrid(g)
	}
	return g, nil
}

// table prints one aggregate of the grid: a row per method, a column per
// point.
func (g *grid) table(id, title string, cell func(agg) string, notes ...string) Table {
	t := Table{ID: id, Title: title, Header: []string{"method"}, Notes: notes}
	for _, p := range g.points {
		t.Header = append(t.Header, p.label)
	}
	for mi, m := range g.methods {
		row := []string{m.name}
		for _, a := range g.cells[mi] {
			row = append(row, cell(a))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// effectiveness prints the grid as a figure's τ (a) and recall (b) tables.
func (g *grid) effectiveness(id, param, data string, notes ...string) []Table {
	return []Table{
		g.table(id+"a", "Kendall tau vs "+param+" ("+data+")", cellTau, notes...),
		g.table(id+"b", "Recall vs "+param+" ("+data+")", cellRecall),
	}
}

// agg is one method's runs at one point, one per draw in draw order; the
// four aggregates a figure can print (the cell functions below) are means
// over it.
type agg []methodRun

func (a agg) mean(f func(r *methodRun) float64) float64 {
	var sum float64
	for i := range a {
		sum += f(&a[i])
	}
	return sum / float64(max(len(a), 1))
}

// total sums one core.Stats counter over the runs.
func (a agg) total(f func(s *core.Stats) int64) int64 {
	var sum int64
	for i := range a {
		sum += f(&a[i].Stats)
	}
	return sum
}

func cellTime(a agg) string {
	return fsec(a.mean(func(r *methodRun) float64 { return r.Seconds }))
}
func cellPrune(a agg) string {
	return fpct(a.mean(func(r *methodRun) float64 { return r.Stats.PruningRatio() }))
}
func cellTau(a agg) string {
	return f3(a.mean(func(r *methodRun) float64 { return r.Score.Tau }))
}
func cellRecall(a agg) string {
	return f3(a.mean(func(r *methodRun) float64 { return r.Score.Recall }))
}

func fsec(s float64) string {
	switch {
	case s < 0.001:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

func fpct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
func f3(v float64) string   { return fmt.Sprintf("%.3f", v) }
