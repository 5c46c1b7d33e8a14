package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tkplq"
	"tkplq/internal/server"
	"tkplq/internal/sim"
)

// runSeconds is the timed-phase length the full sizing is calibrated for on
// the 2-core reference box, and BENCHMARK.json's run_seconds. The timed
// phase is fixed work, not fixed time: -seconds only scales the operation
// counts (see sizing.forSeconds), so both sides of a comparison execute the
// same requests.
const runSeconds = 15

// sizing fixes how much data and how many operations a run uses. Everything
// here is a constant of the benchmark, not an option: full() is what
// BENCHMARK.json measures, smoke() is the tier-1 test's miniature.
type sizing struct {
	objects          int
	day              tkplq.Time // simulated span [0, day)
	minLife, maxLife tkplq.Time
	window           tkplq.Time // query window length
	hotWindows       int        // distinct aligned windows of query_hot
	livePreload      tkplq.Time // live_mix preloads [0, livePreload)
	tick             tkplq.Time // live_mix ingests this many seconds per tick
	loadBatch        int        // set-up ingests and seals in batches of this many records
	snapshotEvery    int        // live_mix auto-seal threshold
	compactEvery     int        // live_mix compacts on every n-th tick

	// Timed operation counts (ticks on live_mix), each a multiple of slices.
	ops map[string]int
	// liveWarmTicks are ingested before live_mix's timed phase.
	liveWarmTicks int
	// traceOps is the length of the traced replay.
	traceOps int
	// Warm-up of the cold workloads runs until the served engines have
	// missed warmMisses presence lookups each and answered warmWindows
	// queries: both generations of both caches have then rolled.
	warmMisses  int64
	warmWindows int
}

// coldStride is the step between consecutive cold windows, in seconds; see
// buildPlan.
const coldStride = 35041

// slices is the number of equal parts of the timed phase; throughput and CPU
// cost are the median over them, so one disturbed slice does not move them.
const slices = 5

// full is the committed sizing. One 16-hour day of 40 objects, alive all day,
// in the default two-floor building is about 1.15 M records in 12 sealed
// partitions — a history 192 windows long, so query cost depends on the
// window and not on the table. ISSUE.md proposed 100 objects, 900-second
// windows and 30-second timed phases; the builder's cap (92 runs in 3420 s)
// leaves about 27 s for a whole run, so phases are 15 s, and objects and
// window were cut instead of the operation counts: a query costs a seventh,
// every latency median pools thousands of samples, and every slice holds
// several garbage collections (README.md, "Repeatability rules").
func full() sizing {
	return sizing{
		objects: 40, day: 57600, minLife: 57600, maxLife: 57600,
		window: 300, hotWindows: 16,
		livePreload: 48600, tick: 4,
		loadBatch: 100000, snapshotEvery: 20000, compactEvery: 300,
		ops:           map[string]int{wlCold: 3584, wlHot: 9000, wlCluster: 3584, wlLive: 1650},
		liveWarmTicks: 100,
		traceOps:      100,
		warmMisses:    2 * 4096 * 11 / 10,
		warmWindows:   2*64 + 2,
	}
}

// smoke is the 1/50-scale sizing of the tier-1 test: every code path of the
// full run (several partitions, auto-seals, a compaction, the traced replay)
// in a few seconds.
func smoke() sizing {
	return sizing{
		objects: 12, day: 3600, minLife: 3600, maxLife: 3600,
		window: 300, hotWindows: 4,
		livePreload: 3000, tick: 4,
		loadBatch: 2000, snapshotEvery: 400, compactEvery: 12,
		ops:           map[string]int{wlCold: 30, wlHot: 120, wlCluster: 25, wlLive: 25},
		liveWarmTicks: 5,
		traceOps:      8,
		warmMisses:    100,
		warmWindows:   6,
	}
}

// forSeconds scales the timed operation counts from runSeconds to seconds,
// keeping each a positive multiple of slices.
func (z sizing) forSeconds(seconds int) sizing {
	ops := make(map[string]int, len(z.ops))
	for name, n := range z.ops {
		n = n * seconds / runSeconds / slices * slices
		if n < slices {
			n = slices
		}
		ops[name] = n
	}
	z.ops = ops
	return z
}

// dataset is the generated input shared by all workloads of one invocation.
type dataset struct {
	bld       *sim.Building
	recs      []tkplq.Record // canonical (T, arrival) order
	generateS float64
}

// generate builds the day's positioning records from the seed. The two
// halves of the fleet are sampled concurrently (a fixed two-way split, so
// the records do not depend on the machine) and merged by timestamp.
func generate(z sizing, seed int64) (*dataset, error) {
	start := time.Now()
	bld, err := sim.Generate(sim.DefaultBuildingConfig())
	if err != nil {
		return nil, err
	}
	mcfg := sim.DefaultMovementConfig()
	mcfg.Objects, mcfg.Duration = z.objects, z.day
	mcfg.MinLifespan, mcfg.MaxLifespan = z.minLife, z.maxLife
	mcfg.Seed = seed
	trajs, err := sim.SimulateMovement(bld, mcfg)
	if err != nil {
		return nil, err
	}
	halves := [2][]sim.Trajectory{trajs[:len(trajs)/2], trajs[len(trajs)/2:]}
	var out [2][]tkplq.Record
	var errs [2]error
	done := make(chan int, 2) // one send per half
	for h := range halves {
		go func(h int) {
			defer func() { done <- h }()
			pcfg := sim.DefaultPositioningConfig()
			pcfg.Seed = seed*2 + int64(h) + 1
			stream, err := sim.StreamIUPT(bld, halves[h], pcfg)
			if err != nil {
				errs[h] = err
				return
			}
			for rec, ok := stream.Next(); ok; rec, ok = stream.Next() {
				out[h] = append(out[h], rec)
			}
		}(h)
	}
	<-done
	<-done
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	a, b := out[0], out[1]
	recs := make([]tkplq.Record, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0].T < a[0].T {
			recs, b = append(recs, b[0]), b[1:]
		} else {
			recs, a = append(recs, a[0]), a[1:]
		}
	}
	recs = append(append(recs, a...), b...)
	return &dataset{bld: bld, recs: recs, generateS: time.Since(start).Seconds()}, nil
}

// before returns the prefix of the records with T < t.
func (d *dataset) before(t tkplq.Time) []tkplq.Record {
	return d.recs[:sort.Search(len(d.recs), func(i int) bool { return d.recs[i].T >= t })]
}

// step is one operation of a workload: a query, preceded on live_mix by the
// ingest of the tick's records. The bodies are the exact bytes sent; the
// program under test sees nothing else of the workload.
type step struct {
	ingest []byte         // POST /v1/ingest body; nil on query workloads
	recs   []tkplq.Record // the ingest's records, for the reference and the twins
	query  []byte         // POST /v2/query body
	ts, te tkplq.Time     // the query's window
}

// plan is a workload's full request sequence: the preload that set-up bulk
// loads, then warm-up, timed and traced steps.
type plan struct {
	workload string
	preload  []tkplq.Record
	// warm holds warm-up steps. With warmUntilRolled only a prefix is sent:
	// warm-up ends once the served caches have rolled; otherwise all of it.
	warm            []step
	warmUntilRolled bool
	timed           []step
	traced          []step
}

func queryStep(ts, te tkplq.Time) step {
	body, err := json.Marshal(server.QueryV2{QueryRequest: server.QueryRequest{
		Kind: "topk", Algorithm: "bf", K: 10, Ts: int64(ts), Te: int64(te),
	}})
	if err != nil {
		panic(err) // a struct of strings and ints always encodes
	}
	return step{query: body, ts: ts, te: te}
}

// buildPlan derives a workload's request sequence from the seed. The seed
// picks the dataset, the phase of the cold window walk, which aligned
// windows are hot and their Zipf draws; nothing else is random.
func buildPlan(workload string, z sizing, seed int64, d *dataset) (*plan, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	p := &plan{workload: workload, preload: d.recs}
	n := z.ops[workload]
	switch workload {
	case wlCold, wlCluster:
		// Window i starts at (off + coldStride·i) mod (day − window). The
		// stride is coprime to the modulus at both sizings, so no window
		// repeats within a run, and it is the golden section of the full
		// day, so consecutive windows land far apart and the starts of any
		// run of them spread evenly over the day: every slice of the timed
		// phase sees the same mix of busy and quiet hours, which is what
		// lets the median over slices reject a disturbed one. (ISSUE.md's
		// stride of 37 walks the day once per run and gave slices that
		// differed by 2.5× for reasons in the data.) Neighbouring starts end
		// up tens of seconds apart; that changes every object's record
		// sequence, which is what keys the presence cache. Warm-up walks
		// backwards from the offset; the traced replay repeats the first
		// timed windows, evicted from both caches long before the timed
		// phase ends.
		p.warmUntilRolled = true
		mod := int64(z.day - z.window)
		off := rng.Int63n(mod)
		at := func(i int) step {
			ts := tkplq.Time(((off+coldStride*int64(i))%mod + mod) % mod)
			return queryStep(ts, ts+z.window)
		}
		// Enough warm-up for the slowest-filling cache: a shard sees half the
		// objects, so its presence cache needs twice the queries.
		warmMax := 40 * z.warmWindows
		if n+warmMax > int(mod) {
			return nil, fmt.Errorf("%s: %d windows do not fit a %d-second day without repeating", workload, n+warmMax, z.day)
		}
		for i := 1; i <= warmMax; i++ {
			p.warm = append(p.warm, at(-i))
		}
		for i := 0; i < n; i++ {
			p.timed = append(p.timed, at(i))
		}
		if z.traceOps > n {
			return nil, fmt.Errorf("%s: traced replay (%d) longer than the timed phase (%d)", workload, z.traceOps, n)
		}
		p.traced = p.timed[:z.traceOps]
	case wlHot:
		aligned := int(z.day / z.window)
		if z.hotWindows > aligned {
			return nil, fmt.Errorf("%s: %d hot windows but the day has %d", workload, z.hotWindows, aligned)
		}
		hot := rng.Perm(aligned)[:z.hotWindows]
		for _, w := range hot {
			ts := tkplq.Time(w) * z.window
			p.warm = append(p.warm, queryStep(ts, ts+z.window))
		}
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(z.hotWindows-1))
		for i := 0; i < n; i++ {
			p.timed = append(p.timed, p.warm[zipf.Uint64()])
		}
		if z.traceOps > n {
			return nil, fmt.Errorf("%s: traced replay (%d) longer than the timed phase (%d)", workload, z.traceOps, n)
		}
		p.traced = p.timed[:z.traceOps]
	case wlLive:
		p.preload = d.before(z.livePreload)
		rest := d.recs[len(p.preload):]
		total := z.liveWarmTicks + n + z.traceOps
		if avail := int((z.day - z.livePreload) / z.tick); total > avail {
			return nil, fmt.Errorf("%s: %d ticks needed but the day holds %d after the preload", workload, total, avail)
		}
		ticks := make([]step, 0, total)
		for i := 0; i < total; i++ {
			end := z.livePreload + tkplq.Time(i+1)*z.tick
			k := 0
			for k < len(rest) && rest[k].T < end {
				k++
			}
			if k == 0 {
				return nil, fmt.Errorf("%s: tick %d has no records", workload, i)
			}
			batch := rest[:k]
			rest = rest[k:]
			req := server.IngestRequest{Records: make([]server.RecordJSON, len(batch))}
			for j, rec := range batch {
				rj := server.RecordJSON{OID: int64(rec.OID), T: int64(rec.T), Samples: make([]server.SampleJSON, len(rec.Samples))}
				for s, smp := range rec.Samples {
					rj.Samples[s] = server.SampleJSON{PLoc: int(smp.Loc), Prob: smp.Prob}
				}
				req.Records[j] = rj
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			// The query ends at the newest record, like the window the
			// subscription evaluates after this batch, but reaches one tick
			// further back. Every object reports at least once per tick, so
			// each object's sequence differs from the monitor's and from the
			// previous query's: the query always evaluates for itself,
			// instead of racing the monitor for the entries it caches.
			te := batch[len(batch)-1].T
			st := queryStep(te-z.window-z.tick, te)
			st.ingest, st.recs = body, batch
			ticks = append(ticks, st)
		}
		p.warm = ticks[:z.liveWarmTicks]
		p.timed = ticks[z.liveWarmTicks : z.liveWarmTicks+n]
		p.traced = ticks[z.liveWarmTicks+n:]
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return p, nil
}

// fingerprint hashes every request byte of the plan in order: equal
// fingerprints mean the program under test receives identical input.
func (p *plan) fingerprint() [sha256.Size]byte {
	h := sha256.New()
	for _, phase := range [][]step{p.warm, p.timed, p.traced} {
		for _, st := range phase {
			h.Write(st.ingest)
			h.Write([]byte{0})
			h.Write(st.query)
			h.Write([]byte{0})
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
