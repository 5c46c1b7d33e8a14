package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tkplq"
	"tkplq/internal/server"
)

// setupReps is how many times a run sets its deployment up: setup_s is the
// median, the last deployment is served, and the traced run keeps the first
// two as its twins.
const setupReps = 3

// sampleEvery selects the fixed sample of timed operations whose answers are
// compared with the reference: every tenth.
const sampleEvery = 10

// runConfig is what one workload run needs besides the dataset.
type runConfig struct {
	z       sizing
	seed    int64
	trace   bool
	dataDir string // parent of the run's temporary data directories
	outDir  string // span files go here
}

// result is one workload run's outcome.
type result struct {
	workload  string
	attempted int
	failed    int
	failures  []string // the first few failure messages
	values    map[string]float64
	samples   map[string]int       // sample count behind each latency percentile
	perSlice  map[string][]float64 // the per-slice values behind the slice medians
	selfMS    []namedValue         // traced run: self time per operation by span name
	acked     int                  // live_mix: the last acknowledged table count
}

type namedValue struct {
	name  string
	value float64
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// sample is what the timed loop records per operation; everything else is
// computed after the phase.
type sample struct {
	query  time.Duration
	ingest time.Duration
	sent   time.Time // when the ingest was sent
	acked  time.Time // when its acknowledgment had been read
	ack    []byte    // the ingest response
	bytes  int       // query response size
	body   []byte    // query response, kept for sampled operations only
	err    error
}

// expectation holds the reference answers, computed before anything is
// served: the `results` bytes of sampled timed steps and of every traced
// step (nil where unchecked), and of the last step executed.
type expectation struct {
	timed  [][]byte
	traced [][]byte
	final  []byte
}

func renderResults(space *tkplq.Space, res []tkplq.Result) ([]byte, error) {
	out := make([]server.ResultJSON, 0, len(res))
	for _, re := range res {
		out = append(out, server.ResultJSON{SLoc: int(re.SLoc), Name: space.SLocation(re.SLoc).Name, Flow: re.Flow})
	}
	return json.Marshal(out)
}

func stepQuery(st *step, space *tkplq.Space) tkplq.Query {
	slocs := make([]tkplq.SLocID, space.NumSLocations())
	for i := range slocs {
		slocs[i] = tkplq.SLocID(i)
	}
	return tkplq.Query{Kind: tkplq.KindTopK, Algorithm: tkplq.BestFirst, K: 10, Ts: st.ts, Te: st.te, SLocs: slocs}
}

// expect evaluates the plan on a never-restarted in-memory System — the
// correctness oracle of ROADMAP aim 3 — ingesting live_mix's ticks in order
// so every answer is over exactly the record prefix the server will hold.
func expect(p *plan, space *tkplq.Space, trace bool) (*expectation, error) {
	table := tkplq.NewTable()
	for _, rec := range p.preload {
		table.Append(rec)
	}
	ref, err := tkplq.NewSystem(space, table, tkplq.Options{})
	if err != nil {
		return nil, err
	}
	memo := map[[2]tkplq.Time][]byte{}
	answer := func(st *step) ([]byte, error) {
		key := [2]tkplq.Time{st.ts, st.te}
		if st.ingest == nil {
			if b, ok := memo[key]; ok {
				return b, nil
			}
		}
		resp, err := ref.Do(context.Background(), stepQuery(st, space))
		if err != nil {
			return nil, err
		}
		b, err := renderResults(space, resp.Results)
		if err == nil && st.ingest == nil {
			memo[key] = b
		}
		return b, err
	}
	exp := &expectation{timed: make([][]byte, len(p.timed)), traced: make([][]byte, len(p.traced))}
	live := p.workload == wlLive
	if live {
		for i := range p.warm {
			if err := ref.Ingest(p.warm[i].recs); err != nil {
				return nil, err
			}
		}
	}
	for i := range p.timed {
		st := &p.timed[i]
		if live {
			if err := ref.Ingest(st.recs); err != nil {
				return nil, err
			}
		}
		last := i == len(p.timed)-1 && !trace
		if i%sampleEvery == 0 || last {
			if exp.timed[i], err = answer(st); err != nil {
				return nil, err
			}
		}
		if last {
			exp.final = exp.timed[i]
		}
	}
	if trace {
		for i := range p.traced {
			st := &p.traced[i]
			if live {
				if err := ref.Ingest(st.recs); err != nil {
					return nil, err
				}
			}
			if exp.traced[i], err = answer(st); err != nil {
				return nil, err
			}
		}
		exp.final = exp.traced[len(p.traced)-1]
	}
	return exp, nil
}

// resultsOf splits a query response into the bytes the determinism contract
// covers and its stats.
func resultsOf(body []byte) ([]byte, server.StatsJSON, error) {
	var resp struct {
		Results json.RawMessage  `json:"results"`
		Stats   server.StatsJSON `json:"stats"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, server.StatsJSON{}, err
	}
	return resp.Results, resp.Stats, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// liveHeapMB forces two collections — the second frees what finalizers and
// sync.Pool victim caches held through the first — and returns what survived.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1e3
		}
	}
	return 0
}

// counters are the served data nodes' /v1/stats sections the per-layer
// metrics difference over the timed phase, summed over nodes.
type counters struct {
	windowHits, windowMisses, windowBytes int64
	partitions                            int
	sealedRecords, sealedBytes            int64
	decoded                               int64
	walFrames, walRecords, walBytes       int64
	walFsyncs                             int64
}

func readCounters(c *client, d *deployment) (counters, error) {
	var out counters
	for _, n := range d.data {
		st, err := c.stats(n)
		if err != nil {
			return out, err
		}
		if st.Storage == nil || st.WAL == nil {
			return out, fmt.Errorf("%s/v1/stats has no storage or wal section", n.url)
		}
		out.windowHits += st.Storage.WindowHits
		out.windowMisses += st.Storage.WindowMisses
		out.windowBytes += st.Storage.WindowBytes
		out.partitions += st.Storage.Partitions
		out.sealedRecords += st.Storage.SealedRecords
		out.sealedBytes += st.Storage.SealedBytes
		out.decoded += st.Storage.MaterializedRecords
		out.walFrames += st.WAL.Frames
		out.walRecords += st.WAL.Records
		out.walBytes += st.WAL.Bytes
		out.walFsyncs += st.WAL.Fsyncs
	}
	return out, nil
}

// settle waits, outside any measured region, until no count-triggered seal
// is pending on the deployment, so the counters read next do not depend on
// where a background seal happened to be.
func settle(c *client, d *deployment, snapshotEvery int) error {
	if snapshotEvery <= 0 {
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, n := range d.data {
		for {
			st, err := c.stats(n)
			if err != nil {
				return err
			}
			if st.WAL.RecordsSinceSnap < int64(snapshotEvery) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("auto-seal still pending after 30 s (%d records since the last seal)", st.WAL.RecordsSinceSnap)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// warmUp sends the plan's warm-up steps. Where the plan asks for it, it stops
// as soon as both generations of every served engine's caches have rolled,
// and fails if the steps run out first.
func warmUp(c *client, p *plan, served *deployment, z sizing) error {
	front := served.front().url
	for i := range p.warm {
		st := &p.warm[i]
		if st.ingest != nil {
			if err := c.post(front+"/v1/ingest", st.ingest); err != nil {
				return err
			}
		}
		if err := c.post(front+"/v2/query", st.query); err != nil {
			return err
		}
		if done := i + 1; p.warmUntilRolled && done >= z.warmWindows && done%16 == 0 {
			rolled := true
			for _, n := range served.data {
				st, err := c.stats(n)
				if err != nil {
					return err
				}
				rolled = rolled && st.Engine.CacheMisses >= z.warmMisses
			}
			if rolled {
				return nil
			}
		}
	}
	if p.warmUntilRolled {
		return fmt.Errorf("the presence caches had not rolled after %d queries", len(p.warm))
	}
	return nil
}

// timedPhase is what the timed loop leaves behind.
type timedPhase struct {
	samples            []sample
	sliceOps, sliceCPU []float64       // operations per second and CPU ms per operation, per slice
	compacts           []time.Duration // each /v1/compact round trip
	// A compaction replaces partitions and their decode counters with them,
	// so decoded records are summed between compactions: decoded up to the
	// last one, where the counter stood at decodedMark.
	decoded, decodedMark int64
}

// runTimed sends the plan's timed steps in slices equal parts, recording per
// operation only what cannot be computed afterwards.
func runTimed(c *client, p *plan, exp *expectation, served *deployment, compactEvery int, decodedBefore int64) (*timedPhase, error) {
	front := served.front().url
	n := len(p.timed)
	tp := &timedPhase{
		samples:  make([]sample, n),
		sliceOps: make([]float64, slices), sliceCPU: make([]float64, slices),
		decodedMark: decodedBefore,
	}
	for s := 0; s < slices; s++ {
		lo, hi := s*n/slices, (s+1)*n/slices
		var exclWall, exclCPU time.Duration
		cpu0, wall0 := cpuTime(), time.Now()
		for i := lo; i < hi; i++ {
			st, sm := &p.timed[i], &tp.samples[i]
			if st.ingest != nil {
				sm.sent = time.Now()
				sm.err = c.post(front+"/v1/ingest", st.ingest)
				sm.acked = time.Now()
				sm.ingest = sm.acked.Sub(sm.sent)
				sm.ack = append([]byte(nil), c.buf.Bytes()...)
				if sm.err != nil {
					continue
				}
			}
			q0 := time.Now()
			sm.err = c.post(front+"/v2/query", st.query)
			sm.query = time.Since(q0)
			sm.bytes = c.buf.Len()
			if exp.timed[i] != nil {
				sm.body = append([]byte(nil), c.buf.Bytes()...)
			}
			if st.ingest != nil && (i+1)%compactEvery == 0 {
				// Compaction is timed as a layer only: its wall and CPU time
				// leave the slice. Nothing else runs meanwhile (one client).
				c0, w0 := cpuTime(), time.Now()
				pre, err := readCounters(c, served)
				if err != nil {
					return nil, err
				}
				k0 := time.Now()
				if err := c.post(front+"/v1/compact", nil); err != nil {
					return nil, err
				}
				tp.compacts = append(tp.compacts, time.Since(k0))
				post, err := readCounters(c, served)
				if err != nil {
					return nil, err
				}
				tp.decoded += pre.decoded - tp.decodedMark
				tp.decodedMark = post.decoded
				exclWall += time.Since(w0)
				exclCPU += cpuTime() - c0
			}
		}
		wall := time.Since(wall0) - exclWall
		cpu := cpuTime() - cpu0 - exclCPU
		tp.sliceOps[s] = float64(hi-lo) / wall.Seconds()
		tp.sliceCPU[s] = ms(cpu) / float64(hi-lo)
	}
	return tp, nil
}

// runWorkload performs one complete run of a workload: reference answers,
// set-up (setupReps times), warm-up, the timed phase in slices, the checks,
// the traced replay when asked for, and teardown.
func runWorkload(cfg runConfig, ds *dataset, workload string) (res *result, err error) {
	z := cfg.z
	space := ds.bld.Space
	p, err := buildPlan(workload, z, cfg.seed, ds)
	if err != nil {
		return nil, err
	}
	exp, err := expect(p, space, cfg.trace)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	runDir, err := os.MkdirTemp(cfg.dataDir, "e2e-"+workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	snapshotEvery := 0
	if workload == wlLive {
		snapshotEvery = z.snapshotEvery
	}
	deploy := func(dir string) (*deployment, error) {
		if workload == wlCluster {
			return deployCluster(space, dir, p.preload, z)
		}
		return deployStandalone(space, dir, p.preload, z, snapshotEvery)
	}
	var (
		deps   []*deployment
		setupS []float64
	)
	defer func() {
		for _, d := range deps {
			if cerr := d.close(); cerr != nil && err == nil {
				err = fmt.Errorf("teardown: %w", cerr)
			}
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		d, err := deploy(filepath.Join(runDir, fmt.Sprintf("rep%d", rep)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if cfg.trace || rep == setupReps-1 {
			deps = append(deps, d)
		} else if err := d.close(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	served := deps[len(deps)-1]
	front := served.front().url

	res = &result{
		workload: workload,
		values:   map[string]float64{},
		samples:  map[string]int{},
		perSlice: map[string][]float64{},
	}
	v := res.values
	v["setup_s"] = median(setupS)
	res.perSlice["setup_s"] = setupS
	v["sim.generate_s"] = ds.generateS
	v["parts.load_s"] = served.setup.load.Seconds()
	v["parts.seal_ms"] = median(msOf(served.setup.seals))
	v["parts.open_ms"] = ms(served.setup.open)
	if workload == wlCluster {
		own := make([]float64, len(served.data))
		for i, n := range served.data {
			own[i] = float64(n.sys.Table().Len())
		}
		v["cluster.shard_skew"] = max(own[0], own[1]) / mean(own)
	}

	c := newClient()
	defer c.close()
	var sub *subscriber
	if workload == wlLive {
		sub, err = subscribe(fmt.Sprintf("%s/v2/subscribe?window=%d&k=10", front, z.window))
		if err != nil {
			return nil, err
		}
		defer sub.close() // before the deferred deployment close: LIFO
	}

	warmStart := time.Now()
	if err := warmUp(c, p, served, z); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	v["core.warmup_s"] = time.Since(warmStart).Seconds()

	// Timed phase.
	if err := settle(c, served, snapshotEvery); err != nil {
		return nil, err
	}
	heapStart := liveHeapMB()
	before, err := readCounters(c, served)
	if err != nil {
		return nil, err
	}
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	gcBefore, cpuBefore := gcCPUSeconds(), cpuTime()

	tp, err := runTimed(c, p, exp, served, z.compactEvery, before.decoded)
	if err != nil {
		return nil, err
	}
	n, samples := len(p.timed), tp.samples
	gcAfter, cpuAfter := gcCPUSeconds(), cpuTime()
	runtime.ReadMemStats(&memAfter)
	var lastAck server.IngestResponse
	if sub != nil {
		if err := json.Unmarshal(samples[n-1].ack, &lastAck); err == nil {
			res.acked = lastAck.Records
			// Give the last update time to arrive, if there is one: a batch
			// that does not change the ranking is not announced.
			_ = sub.waitFor(func(evs []pushEvent) bool {
				return len(evs) > 0 && evs[len(evs)-1].records >= lastAck.Records
			}, 250*time.Millisecond)
		}
	}
	if err := settle(c, served, snapshotEvery); err != nil {
		return nil, err
	}
	after, err := readCounters(c, served)
	if err != nil {
		return nil, err
	}
	heapEnd := liveHeapMB()

	// Checks and metrics of the timed phase.
	res.attempted = n
	var queryMS, ingestMS, pushMS, afterAckMS, recomputed, respBytes []float64
	var agg server.StatsJSON
	checked := 0
	var pushes []pushEvent // in arrival order, so in table-count order
	if sub != nil {
		pushes = sub.snapshot()
	}
	for i := range samples {
		sm := &samples[i]
		if sm.err != nil {
			res.fail("operation %d: %v", i, sm.err)
			continue
		}
		queryMS = append(queryMS, ms(sm.query))
		respBytes = append(respBytes, float64(sm.bytes))
		ok := true
		if sm.body != nil {
			got, st, err := resultsOf(sm.body)
			switch {
			case err != nil:
				res.fail("operation %d: undecodable response: %v", i, err)
				ok = false
			case !bytes.Equal(got, exp.timed[i]):
				res.fail("operation %d: results differ from the reference: got %s want %s", i, got, exp.timed[i])
				ok = false
			default:
				checked++
				agg.ObjectsTotal += st.ObjectsTotal
				agg.ObjectsComputed += st.ObjectsComputed
				agg.SampleSetsOriginal += st.SampleSetsOriginal
				agg.SampleSetsReduced += st.SampleSetsReduced
				agg.HeapPops += st.HeapPops
				agg.CacheHits += st.CacheHits
				agg.CacheMisses += st.CacheMisses
				agg.Coalesced += st.Coalesced
			}
		}
		if p.timed[i].ingest == nil {
			continue
		}
		ingestMS = append(ingestMS, ms(sm.ingest))
		var ack server.IngestResponse
		if err := json.Unmarshal(sm.ack, &ack); err != nil {
			if ok {
				res.fail("tick %d: undecodable ingest acknowledgment: %v", i, err)
			}
			continue
		}
		// A batch that leaves the ranking as it was gets no update, and one
		// that arrives while the monitor evaluates is folded into the next
		// update; such ticks (a few per cent) have no push time.
		for len(pushes) > 0 && pushes[0].records < ack.Records {
			pushes = pushes[1:]
		}
		if len(pushes) == 0 || pushes[0].records != ack.Records {
			continue
		}
		ev := pushes[0]
		pushMS = append(pushMS, ms(ev.at.Sub(sm.sent)))
		afterAckMS = append(afterAckMS, ms(ev.at.Sub(sm.acked)))
		recomputed = append(recomputed, float64(ev.recomputed))
	}

	if sub != nil && 2*len(pushMS) < len(ingestMS) {
		res.fail("the subscription announced only %d of %d acknowledged batches", len(pushMS), len(ingestMS))
	}

	v["ops_per_s"] = median(tp.sliceOps)
	v["cpu_ms_per_op"] = median(tp.sliceCPU)
	res.perSlice["ops_per_s"], res.perSlice["cpu_ms_per_op"] = tp.sliceOps, tp.sliceCPU
	v["query_p50_ms"] = median(queryMS)
	v["server.query_p90_ms"] = percentile(queryMS, 90)
	v["server.query_p99_ms"] = percentile(queryMS, 99)
	res.samples["query"] = len(queryMS)
	v["server.response_bytes"] = mean(respBytes)
	if workload == wlLive {
		v["ingest_p50_ms"] = median(ingestMS)
		v["server.ingest_p99_ms"] = percentile(ingestMS, 99)
		v["push_p50_ms"] = median(pushMS)
		v["server.push_p99_ms"] = percentile(pushMS, 99)
		res.samples["ingest"], res.samples["push"] = len(ingestMS), len(pushMS)
		v["core.push_after_ack_ms"] = median(afterAckMS)
		v["core.monitor_recomputed_objects"] = mean(recomputed)
		v["parts.compact_ms"] = median(msOf(tp.compacts))
		frames := float64(after.walFrames - before.walFrames)
		v["wal.fsyncs_per_batch"] = float64(after.walFsyncs-before.walFsyncs) / frames
		v["wal.bytes_per_record"] = float64(after.walBytes-before.walBytes) / float64(after.walRecords-before.walRecords)
	}
	if checked > 0 {
		k := float64(checked)
		v["core.objects_total"] = float64(agg.ObjectsTotal) / k
		v["core.objects_computed"] = float64(agg.ObjectsComputed) / k
		v["core.heap_pops"] = float64(agg.HeapPops) / k
		v["core.coalesced"] = float64(agg.Coalesced) / k
		v["core.sample_sets_reduced_ratio"] = ratio(float64(agg.SampleSetsReduced), float64(agg.SampleSetsOriginal))
		v["core.cache_hit_ratio"] = ratio(float64(agg.CacheHits), float64(agg.CacheHits+agg.CacheMisses))
	}
	hits, misses := float64(after.windowHits-before.windowHits), float64(after.windowMisses-before.windowMisses)
	v["core.window_cache_hit_ratio"] = ratio(hits, hits+misses)
	v["core.window_cache_mb"] = float64(after.windowBytes) / 1e6
	v["parts.partitions"] = float64(after.partitions)
	v["parts.records_decoded"] = float64(tp.decoded+after.decoded-tp.decodedMark) / float64(n)
	v["parts.sealed_bytes_per_record"] = ratio(float64(after.sealedBytes), float64(after.sealedRecords))
	v["parts.mapped_mb"] = float64(after.sealedBytes) / 1e6
	v["runtime.alloc_mb_per_op"] = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / 1e6 / float64(n)
	v["runtime.allocs_per_op"] = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(n)
	v["runtime.gc_cpu_fraction"] = ratio(gcAfter-gcBefore, (cpuAfter - cpuBefore).Seconds())
	v["runtime.heap_live_mb"] = heapEnd
	v["runtime.heap_growth_ratio"] = ratio(heapEnd, heapStart)

	executed := p.timed
	if cfg.trace {
		tr := &traceRun{cfg: cfg, plan: p, exp: exp, res: res, client: c,
			served: served, twinA: deps[0], twinB: deps[1], space: space, runDir: runDir, snapshotEvery: snapshotEvery}
		if err := tr.run(); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		executed = append(executed[:len(executed):len(executed)], p.traced...)
	}
	v["runtime.peak_rss_mb"] = peakRSSMB()

	if workload == wlLive {
		if err := settle(c, served, snapshotEvery); err != nil {
			return nil, err
		}
		sub.close()
		if err := checkDurable(res, served, space, executed, exp.final); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkDurable closes live_mix's served node and reopens its data directory
// as a restart would: the recovered table must hold exactly the acknowledged
// records and answer the last query byte for byte like the reference.
func checkDurable(res *result, served *deployment, space *tkplq.Space, executed []step, want []byte) error {
	n := served.data[0]
	if err := served.close(); err != nil {
		return err
	}
	store, table, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: n.dir, Verify: tkplq.VerifyFull})
	if err != nil {
		return fmt.Errorf("reopening %s: %w", n.dir, err)
	}
	defer store.Close()
	res.attempted++
	if table.Len() != res.acked {
		res.fail("after restart the table holds %d records, %d were acknowledged", table.Len(), res.acked)
		return nil
	}
	sys, err := tkplq.NewSystem(space, table, tkplq.Options{})
	if err != nil {
		return err
	}
	resp, err := sys.Do(context.Background(), stepQuery(&executed[len(executed)-1], space))
	if err != nil {
		return err
	}
	got, err := renderResults(space, resp.Results)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		res.fail("after restart the last answer differs from the reference: got %s want %s", got, want)
	}
	return nil
}
