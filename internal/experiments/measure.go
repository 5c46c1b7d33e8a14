package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"tkplq/internal/baseline"
	"tkplq/internal/core"
	"tkplq/internal/eval"
	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
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
	qSize := int(float64(total)*qFrac + 0.5)
	if qSize < 1 {
		qSize = 1
	}
	if qSize > total {
		qSize = total
	}
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

// methodRun is one measured query execution.
type methodRun struct {
	Seconds float64
	Stats   core.Stats
	Res     []core.Result
}

// runExact times one TkPLQ execution of the exact engine through the
// context-aware Do API (so canceling Config.Ctx aborts mid-query). A fresh
// engine per draw keeps the window cache cold, and the worker pool
// defaults to 1 (not GOMAXPROCS) unless Config.Workers opts in — so
// recorded times stay comparable with the paper's single-threaded
// evaluation and with numbers measured before the sharded engine existed.
func runExact(opts core.Options, ds *Dataset, table *iupt.Table, d queryDraw, k int, algo core.Algorithm) (methodRun, error) {
	if opts.Workers == 0 {
		opts.Workers = ds.Workers
	}
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	eng := core.NewEngine(ds.Building.Space, opts)
	start := time.Now()
	resp, err := eng.Do(ds.ctx(), table, core.Query{
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

// truthTopK ranks the ground-truth flows of a draw.
func truthTopK(ds *Dataset, d queryDraw, k int) []core.Result {
	flows := eval.GroundTruthFlows(ds.Building.Space, ds.Trajs, d.Q, d.ts, d.te)
	return eval.TopKOf(flows, k)
}

// agg accumulates per-draw measurements of one method.
type agg struct {
	n       int
	seconds float64
	prune   float64
	tau     float64
	recall  float64
	breaks  float64
	paths   float64
}

func (a *agg) addRun(r methodRun, m eval.Metrics) {
	a.n++
	a.seconds += r.Seconds
	a.prune += r.Stats.PruningRatio()
	a.tau += m.Tau
	a.recall += m.Recall
	a.breaks += float64(r.Stats.SequenceBreaks)
	a.paths += float64(r.Stats.PathsEnumerated)
}

func (a *agg) avgSeconds() float64 { return a.seconds / float64(max(a.n, 1)) }
func (a *agg) avgPrune() float64   { return a.prune / float64(max(a.n, 1)) }
func (a *agg) avgTau() float64     { return a.tau / float64(max(a.n, 1)) }
func (a *agg) avgRecall() float64  { return a.recall / float64(max(a.n, 1)) }

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
