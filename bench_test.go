// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §5 for the experiment index) plus micro-benchmarks of the
// core machinery. Each BenchmarkTable*/BenchmarkFigure* iteration executes
// the full experiment at Small scale; run cmd/experiments with
// -scale=medium|paper for the larger configurations.
package tkplq_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tkplq"
	"tkplq/internal/core"
	"tkplq/internal/experiments"
	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/sim"
)

// benchCfg shares one dataset cache across all experiment benches so the
// simulation cost is paid once per `go test -bench` process.
var (
	benchCfgOnce sync.Once
	benchCfg     *experiments.Config
)

func sharedConfig() *experiments.Config {
	benchCfgOnce.Do(func() {
		benchCfg = &experiments.Config{
			Scale:    experiments.Small,
			Queries:  1,
			MCRounds: 10,
			Seed:     1,
		}
	})
	return benchCfg
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := sharedConfig()
	// Warm the dataset cache outside the timed region.
	if _, err := exp.Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Paper artifacts: one benchmark per table/figure.

func BenchmarkTable4DefaultComparison(b *testing.B) { benchExperiment(b, "T4") }
func BenchmarkTable5EffectMSS(b *testing.B)         { benchExperiment(b, "T5") }
func BenchmarkFigure7EffectivenessMSS(b *testing.B) { benchExperiment(b, "F7") }
func BenchmarkFigure8EfficiencyK(b *testing.B)      { benchExperiment(b, "F8") }
func BenchmarkFigure9EfficiencyQ(b *testing.B)      { benchExperiment(b, "F9") }
func BenchmarkFigure10EfficiencyDt(b *testing.B)    { benchExperiment(b, "F10") }
func BenchmarkFigure11EffectivenessK(b *testing.B)  { benchExperiment(b, "F11") }
func BenchmarkFigure12EffectivenessQ(b *testing.B)  { benchExperiment(b, "F12") }
func BenchmarkFigure13EffectivenessDt(b *testing.B) { benchExperiment(b, "F13") }
func BenchmarkFigure14EfficiencyTMu(b *testing.B)   { benchExperiment(b, "F14") }
func BenchmarkFigure15EffectivenessT(b *testing.B)  { benchExperiment(b, "F15") }
func BenchmarkFigure16EffectivenessMu(b *testing.B) { benchExperiment(b, "F16") }
func BenchmarkFigure17EfficiencyO(b *testing.B)     { benchExperiment(b, "F17") }
func BenchmarkFigure18EffectivenessK(b *testing.B)  { benchExperiment(b, "F18") }
func BenchmarkFigure19EffectivenessQ(b *testing.B)  { benchExperiment(b, "F19") }
func BenchmarkFigure20EffectivenessO(b *testing.B)  { benchExperiment(b, "F20") }
func BenchmarkFigure21EffectivenessDt(b *testing.B) { benchExperiment(b, "F21") }
func BenchmarkTable7RFIDComparison(b *testing.B)    { benchExperiment(b, "T7") }
func BenchmarkAblationEngines(b *testing.B)         { benchExperiment(b, "A1") }
func BenchmarkAblationReduction(b *testing.B)       { benchExperiment(b, "A2") }

// Micro-benchmarks of the core machinery.

// benchDataset builds a small RD-like workload once for the micro benches.
type benchData struct {
	building *sim.Building
	table    *iupt.Table
	slocs    []indoor.SLocID
	span     iupt.Time
}

var (
	microOnce sync.Once
	micro     *benchData
)

func microData(b *testing.B) *benchData {
	b.Helper()
	microOnce.Do(func() {
		building, err := sim.RealDataFloor()
		if err != nil {
			panic(err)
		}
		trajs, err := sim.SimulateMovement(building, sim.MovementConfig{
			Objects: 20, Duration: 1800, MaxSpeed: 1,
			MinDwell: 60, MaxDwell: 300,
			MinLifespan: 900, MaxLifespan: 1800, Seed: 5,
		})
		if err != nil {
			panic(err)
		}
		table, err := sim.GenerateIUPT(building, trajs, sim.PositioningConfig{
			MaxPeriod: 3, MSS: 4, ErrorRadius: 2.1, Gamma: 0.2, Seed: 6,
		})
		if err != nil {
			panic(err)
		}
		slocs := make([]indoor.SLocID, building.Space.NumSLocations())
		for i := range slocs {
			slocs[i] = indoor.SLocID(i)
		}
		micro = &benchData{building: building, table: table, slocs: slocs, span: 1800}
	})
	return micro
}

// benchTopK is one KindTopK evaluation through Engine.Do.
func benchTopK(b *testing.B, eng *core.Engine, tb *iupt.Table, q []indoor.SLocID, k int, ts, te iupt.Time, algo core.Algorithm, disableCache bool) {
	b.Helper()
	if _, err := eng.Do(context.Background(), tb, core.Query{Kind: core.KindTopK, Algorithm: algo, K: k, Ts: ts, Te: te, SLocs: q, DisableCache: disableCache}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFlowSingleLocation(b *testing.B) {
	b.ReportAllocs()
	d := microData(b)
	eng := core.NewEngine(d.building.Space, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := core.Query{Kind: core.KindFlow, SLocs: d.slocs[i%len(d.slocs):][:1], Te: d.span}
		if _, err := eng.Do(context.Background(), d.table, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReduceData(b *testing.B) {
	b.ReportAllocs()
	d := microData(b)
	eng := core.NewEngine(d.building.Space, core.Options{})
	seqs := d.table.SequencesInRange(0, d.span)
	var seq iupt.Sequence
	for _, s := range seqs {
		if len(s) > len(seq) {
			seq = s
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ReduceData(seq, nil)
	}
}

func BenchmarkSummarizeDP(b *testing.B) {
	b.ReportAllocs()
	d := microData(b)
	eng := core.NewEngine(d.building.Space, core.Options{Engine: core.EngineDP})
	red := longestReduction(eng, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Summarize(red)
	}
}

func BenchmarkSummarizeEnum(b *testing.B) {
	b.ReportAllocs()
	d := microData(b)
	eng := core.NewEngine(d.building.Space, core.Options{Engine: core.EngineEnum})
	red := longestReduction(eng, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Summarize(red)
	}
}

func longestReduction(eng *core.Engine, d *benchData) []iupt.SampleSet {
	seqs := d.table.SequencesInRange(0, d.span)
	var best []iupt.SampleSet
	for _, s := range seqs {
		if red, ok := eng.ReduceData(s, nil); ok && len(red.Seq) > len(best) {
			best = red.Seq
		}
	}
	return best
}

func BenchmarkTopKAlgorithms(b *testing.B) {
	d := microData(b)
	for _, algo := range []struct {
		name string
		a    core.Algorithm
	}{
		{"Naive", core.AlgoNaive},
		{"NestedLoop", core.AlgoNestedLoop},
		{"BestFirst", core.AlgoBestFirst},
	} {
		b.Run(algo.name, func(b *testing.B) {
			b.ReportAllocs()
			eng := core.NewEngine(d.building.Space, core.Options{})
			for i := 0; i < b.N; i++ {
				benchTopK(b, eng, d.table, d.slocs, 3, 0, d.span, algo.a, false)
			}
		})
	}
}

// Parallel-vs-sequential benchmarks of the sharded evaluation pipeline on
// the default synthetic building (2 floors, 50 objects, 2 h of movement).
// Compare workers=1 (the sequential path) against workers=4/8:
//
//	go test -bench BenchmarkTopKWorkers -benchtime 3x
//
// The cache is disabled here so every iteration measures real evaluation
// work; BenchmarkTopKPresenceCache measures the cache's effect separately.

type parallelBenchData struct {
	building *sim.Building
	table    *iupt.Table
	slocs    []indoor.SLocID
	span     iupt.Time
}

var (
	parallelOnce sync.Once
	parallelBD   *parallelBenchData
)

func parallelData(b *testing.B) *parallelBenchData {
	b.Helper()
	parallelOnce.Do(func() {
		building, err := sim.Generate(sim.DefaultBuildingConfig())
		if err != nil {
			panic(err)
		}
		trajs, err := sim.SimulateMovement(building, sim.DefaultMovementConfig())
		if err != nil {
			panic(err)
		}
		table, err := sim.GenerateIUPT(building, trajs, sim.DefaultPositioningConfig())
		if err != nil {
			panic(err)
		}
		slocs := make([]indoor.SLocID, building.Space.NumSLocations())
		for i := range slocs {
			slocs[i] = indoor.SLocID(i)
		}
		parallelBD = &parallelBenchData{building: building, table: table, slocs: slocs, span: 7200}
	})
	return parallelBD
}

func BenchmarkTopKWorkers(b *testing.B) {
	d := parallelData(b)
	for _, algo := range []struct {
		name string
		a    core.Algorithm
	}{
		{"NestedLoop", core.AlgoNestedLoop},
		{"BestFirst", core.AlgoBestFirst},
	} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", algo.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				eng := core.NewEngine(d.building.Space, core.Options{Workers: workers})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchTopK(b, eng, d.table, d.slocs, 5, 0, d.span, algo.a, true)
				}
			})
		}
	}
}

func BenchmarkTopKPresenceCache(b *testing.B) {
	d := parallelData(b)
	for _, cached := range []bool{false, true} {
		name := "cold"
		if cached {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			eng := core.NewEngine(d.building.Space, core.Options{})
			if cached {
				// Populate the cache outside the timed region.
				benchTopK(b, eng, d.table, d.slocs, 5, 0, d.span, core.AlgoNestedLoop, false)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTopK(b, eng, d.table, d.slocs, 5, 0, d.span, core.AlgoNestedLoop, !cached)
			}
		})
	}
}

// BenchmarkIncrementalUpdate measures the live-feed hot path: one ingested
// record arrives inside the current window [now-1800, now] and the ranking
// is brought up to date. The incremental path splices the record into the
// retained per-object state and recomputes only the perturbed object; the
// full path re-evaluates the whole window from scratch (cache disabled —
// the cost a polling client pays per refresh without retained state).
// The incremental sub-benchmark must stay an order of magnitude cheaper.
func BenchmarkIncrementalUpdate(b *testing.B) {
	d := parallelData(b)
	const window = iupt.Time(1800)
	now := d.span
	recs := d.table.SortedRecords()
	feed := func(i int) iupt.Record {
		rec := recs[i%len(recs)]
		rec.T = now
		return rec
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		eng := core.NewEngine(d.building.Space, core.Options{})
		tb := iupt.NewTable()
		tb.Append(recs...)
		var mu sync.Mutex // the table's ingest lock
		sub, err := eng.Subscribe(context.Background(), core.SubscribeConfig{Table: tb, Barrier: &mu},
			core.Query{Kind: core.KindTopK, Algorithm: core.AlgoBestFirst, K: 5, Window: window, SLocs: d.slocs})
		if err != nil {
			b.Fatal(err)
		}
		defer sub.Close()
		evals := eng.MonitorStats()[0].Evals // 1: Subscribe built the window state
		ingest := func(rec iupt.Record) {
			mu.Lock()
			tb.Append(rec)
			eng.NotifyAppend(tb, []iupt.Record{rec})
			mu.Unlock()
			// Wait for the evaluation, not for a push: a record that leaves
			// the ranking unchanged evaluates but pushes nothing. A poll that
			// finds the eval loop at work blocks on the monitor's lock until
			// the evaluation is done, so few polls land in allocs/op.
			for evals++; eng.MonitorStats()[0].Evals < evals; {
				runtime.Gosched()
			}
		}
		ingest(feed(0)) // slide the window to end at now outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ingest(feed(i + 1))
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		eng := core.NewEngine(d.building.Space, core.Options{})
		tb := iupt.NewTable()
		tb.Append(recs...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb.Append(feed(i))
			benchTopK(b, eng, tb, d.slocs, 5, now-window, now, core.AlgoBestFirst, true)
		}
	})
}

func BenchmarkEndToEndPipeline(b *testing.B) {
	b.ReportAllocs()
	// Generation + query, the full public-API path.
	for i := 0; i < b.N; i++ {
		building, err := tkplq.RealDataBuilding()
		if err != nil {
			b.Fatal(err)
		}
		trajs, err := tkplq.SimulateMovement(building, tkplq.MovementConfig{
			Objects: 5, Duration: 600, MaxSpeed: 1,
			MinDwell: 30, MaxDwell: 120,
			MinLifespan: 300, MaxLifespan: 600, Seed: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		table, err := tkplq.GenerateIUPT(building, trajs, tkplq.DefaultPositioningConfig())
		if err != nil {
			b.Fatal(err)
		}
		sys, err := tkplq.NewSystem(building.Space, table, tkplq.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Do(context.Background(), tkplq.Query{Algorithm: tkplq.BestFirst, K: 3, Te: 600, SLocs: sys.AllSLocations()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchQuery contrasts M same-window queries issued sequentially
// through System.Do against one System.DoBatch call. The batch performs the
// per-object data reduction and presence summarization once for the whole
// group (the queries bypass the cache so the sequential path cannot hide
// behind it), which is the serving-layer win for overlapping dashboard queries.
func BenchmarkBatchQuery(b *testing.B) {
	d := parallelData(b)
	const m = 8
	queries := make([]tkplq.Query, m)
	for i := range queries {
		// Distinct query subsets and ks over one shared window.
		lo := i % (len(d.slocs) / 2)
		queries[i] = tkplq.Query{
			Kind: tkplq.KindTopK, Algorithm: tkplq.NestedLoop, K: 3 + i%3,
			Ts: 0, Te: d.span, SLocs: d.slocs[lo:], DisableCache: true,
		}
	}
	newSys := func() *tkplq.System {
		sys, err := tkplq.NewSystem(d.building.Space, d.table, tkplq.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		sys := newSys()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, err := sys.Do(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		sys := newSys()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.DoBatch(context.Background(), queries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryStampede measures a burst of concurrent identical TkPLQ
// queries — the serving-layer hot case — with and without query-level
// request coalescing. Each iteration fires 16 goroutines asking the same
// question; with coalescing one evaluation serves all 16.
func BenchmarkQueryStampede(b *testing.B) {
	d := parallelData(b)
	const burst = 16
	for _, coalesce := range []bool{false, true} {
		name := "uncoalesced"
		if coalesce {
			name = "coalesced"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			eng := core.NewEngine(d.building.Space, core.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for g := 0; g < burst; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						q := core.Query{Algorithm: core.AlgoNestedLoop, K: 5, Te: d.span, SLocs: d.slocs,
							DisableCache: true, DisableCoalescing: !coalesce} // isolate the coalescer's effect
						if _, err := eng.Do(context.Background(), d.table, q); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
		})
	}
}
