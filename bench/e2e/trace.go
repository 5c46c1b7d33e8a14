package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tkplq"
	"tkplq/internal/core"
	"tkplq/internal/iupt"
	"tkplq/internal/server"
)

// span is one timed call made by the traced run: into the served deployment
// over HTTP, or into a layer's public functions on a twin.
type span struct {
	id, parent int // parent is -1 for an operation's root span
	op         int // index of the traced operation
	name       string
	start, end time.Duration // since the tracer's base
}

// tracer keeps spans in memory; write emits them when the run is over.
type tracer struct {
	base  time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{id: len(t.spans), parent: parent, op: op, name: name, start: time.Since(t.base)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.end = time.Since(t.base)
	return s.end - s.start
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover. Children are sequential calls, so they never overlap.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// byOp sums span durations per operation and span name.
func (t *tracer) byOp(ops int) []map[string]time.Duration {
	out := make([]map[string]time.Duration, ops)
	for i := range out {
		out[i] = map[string]time.Duration{}
	}
	for _, s := range t.spans {
		out[s.op][s.name] += s.end - s.start
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := t.selfTimes()
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		err := enc.Encode(struct {
			Op      int     `json:"op"`
			ID      int     `json:"id"`
			Parent  int     `json:"parent"`
			Name    string  `json:"name"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
			SelfUS  float64 `json:"self_us"`
		}{s.op, s.id, s.parent, s.name, us(s.start), us(s.end), us(self[i])})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// traceRun is the traced replay: after the timed phase, plan.traced is sent
// to the served deployment one operation at a time, and around each the
// benchmark itself calls the layers' public functions with the operation's
// inputs, on two twins of the deployment (the first two set-ups of the run)
// so the served caches see nothing but the replay. Twin A mirrors the server
// as configured; twin B answers the same operations with one worker. Both
// see each window when the server does, so they hit and miss their caches
// exactly when it does.
type traceRun struct {
	cfg           runConfig
	plan          *plan
	exp           *expectation
	res           *result
	client        *client
	served        *deployment
	twinA, twinB  *deployment
	space         *tkplq.Space
	runDir        string
	snapshotEvery int
}

// sealIfDue mirrors the server's count-triggered seal on a twin.
func sealIfDue(n *node, snapshotEvery int) error {
	if snapshotEvery > 0 && n.store.RecordsSinceSnapshot() >= int64(snapshotEvery) {
		return n.sys.Snapshot()
	}
	return nil
}

// directIngest applies a batch to a twin the way the server applies a
// request: System.Ingest, then the count-triggered seal.
func directIngest(n *node, recs []tkplq.Record, snapshotEvery int) error {
	if err := n.sys.Ingest(recs); err != nil {
		return err
	}
	return sealIfDue(n, snapshotEvery)
}

func (tr *traceRun) run() error {
	p, v := tr.plan, tr.res.values
	ctx := context.Background()
	live := p.workload == wlLive
	clustered := p.workload == wlCluster
	front := tr.served.front().url

	// Bring the twins to the served deployment's state.
	switch p.workload {
	case wlHot:
		for i := range p.warm {
			q := stepQuery(&p.warm[i], tr.space)
			for _, twin := range []*deployment{tr.twinA, tr.twinB} {
				if _, err := twin.data[0].sys.Do(ctx, q); err != nil {
					return err
				}
			}
		}
	case wlLive:
		for _, phase := range [][]step{p.warm, p.timed} {
			for i := range phase {
				for _, twin := range []*deployment{tr.twinA, tr.twinB} {
					if err := directIngest(twin.data[0], phase[i].recs, tr.snapshotEvery); err != nil {
						return err
					}
				}
			}
		}
	}
	// Scratch targets of the append probes: applying a batch twice to a twin
	// would corrupt it.
	var walProbe *tkplq.PartitionedStore
	appendProbe := tkplq.NewTable()
	if live {
		var err error
		walProbe, _, err = tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: filepath.Join(tr.runDir, "wal-probe")})
		if err != nil {
			return err
		}
		defer walProbe.Close()
	}
	// The stage probes run the engine's public per-object functions; they
	// touch no cache, so one engine serves every operation.
	probe := core.NewEngine(tr.space, core.Options{})
	all := map[tkplq.SLocID]bool{}
	for i := 0; i < tr.space.NumSLocations(); i++ {
		all[tkplq.SLocID(i)] = true
	}

	t := &tracer{base: time.Now()}
	type opRecord struct {
		body         []byte
		ack          []byte
		err          error
		records      int // records materialized by the window probe
		partialBytes int
	}
	recs := make([]opRecord, len(p.traced))
	for i := range p.traced {
		st, rec := &p.traced[i], &recs[i]
		q := stepQuery(st, tr.space)
		root := t.begin("op", -1, i)

		if live {
			h := t.begin("http.ingest", root, i)
			rec.err = tr.client.post(front+"/v1/ingest", st.ingest)
			t.end(h)
			rec.ack = append([]byte(nil), tr.client.buf.Bytes()...)
		}
		if rec.err == nil {
			h := t.begin("http.query", root, i)
			rec.err = tr.client.post(front+"/v2/query", st.query)
			t.end(h)
			rec.body = append([]byte(nil), tr.client.buf.Bytes()...)
		}

		if live {
			h := t.begin("core.ingest", root, i)
			err := tr.twinA.data[0].sys.Ingest(st.recs)
			t.end(h)
			if err != nil {
				return err
			}
			h = t.begin("twin.sync", root, i)
			err = sealIfDue(tr.twinA.data[0], tr.snapshotEvery)
			if err == nil {
				err = directIngest(tr.twinB.data[0], st.recs, tr.snapshotEvery)
			}
			t.end(h)
			if err != nil {
				return err
			}
			h = t.begin("wal.append", root, i)
			err = walProbe.AppendBatch(st.recs)
			t.end(h)
			if err != nil {
				return err
			}
			h = t.begin("iupt.append", root, i)
			for _, r := range st.recs {
				appendProbe.Append(r)
			}
			t.end(h)
		}

		if clustered {
			wire := server.QueryV2{QueryRequest: server.QueryRequest{Kind: "topk", K: q.K, Ts: int64(q.Ts), Te: int64(q.Te)}, NoCoalesce: true}
			for _, s := range q.SLocs {
				wire.SLocs = append(wire.SLocs, int(s))
			}
			body, err := json.Marshal(wire)
			if err != nil {
				return err
			}
			legs := t.begin("http.partial_legs", root, i)
			for _, n := range tr.twinA.data {
				h := t.begin("http.partial", legs, i)
				err := tr.client.post(n.url+"/v2/partial", body)
				t.end(h)
				if err != nil {
					return err
				}
				rec.partialBytes += tr.client.buf.Len()
			}
			t.end(legs)
			direct := t.begin("core.partials", root, i)
			parts := make([]*tkplq.Partial, len(tr.twinB.data))
			for k, n := range tr.twinB.data {
				h := t.begin("core.partial", direct, i)
				part, err := n.sys.DoPartial(ctx, q)
				t.end(h)
				if err != nil {
					return err
				}
				parts[k] = part
			}
			t.end(direct)
			h := t.begin("core.merge", root, i)
			merged, err := tkplq.MergePartials(parts)
			t.end(h)
			if err != nil {
				return err
			}
			h = t.begin("core.finish", root, i)
			_, err = tr.twinB.router.sys.FinishPartial(q, merged)
			t.end(h)
			if err != nil {
				return err
			}
		} else {
			h := t.begin("core.do", root, i)
			_, err := tr.twinA.data[0].sys.Do(ctx, q)
			t.end(h)
			if err != nil {
				return err
			}
			serial := q
			serial.Workers = 1
			h = t.begin("core.do_serial", root, i)
			_, err = tr.twinB.data[0].sys.Do(ctx, serial)
			t.end(h)
			if err != nil {
				return err
			}
		}

		// From-scratch cost of each stage of the evaluation, serially over
		// the window's objects: what a miss pays and a hit avoids.
		stages := t.begin("stages", root, i)
		for _, n := range tr.twinB.data {
			h := t.begin("iupt.window", stages, i)
			seqs, err := n.sys.Table().SequencesInRangeSharded(ctx, st.ts, st.te, 1)
			t.end(h)
			if err != nil {
				return err
			}
			oids := iupt.SortedObjects(seqs)
			reds := make([]*core.Reduction, 0, len(oids))
			for _, oid := range oids {
				rec.records += len(seqs[oid])
				h := t.begin("core.reduce", stages, i)
				red, ok := probe.ReduceData(seqs[oid], all)
				t.end(h)
				if ok {
					reds = append(reds, red)
				}
			}
			for _, red := range reds {
				h := t.begin("core.summarize", stages, i)
				probe.Summarize(red.Seq)
				t.end(h)
			}
		}
		t.end(stages)
		t.end(root)
	}

	// Checks: every traced answer against the reference.
	res := tr.res
	res.attempted += len(recs)
	var lastAck server.IngestResponse
	for i := range recs {
		rec := &recs[i]
		if rec.err != nil {
			res.fail("traced operation %d: %v", i, rec.err)
			continue
		}
		got, _, err := resultsOf(rec.body)
		if err != nil {
			res.fail("traced operation %d: undecodable response: %v", i, err)
		} else if !bytes.Equal(got, tr.exp.traced[i]) {
			res.fail("traced operation %d: results differ from the reference: got %s want %s", i, got, tr.exp.traced[i])
		}
		if live {
			if err := json.Unmarshal(rec.ack, &lastAck); err != nil {
				res.fail("traced tick %d: undecodable ingest acknowledgment: %v", i, err)
			}
		}
	}
	if live && lastAck.Records > 0 {
		res.acked = lastAck.Records
	}

	// Per-layer metrics: medians over the traced operations.
	per := t.byOp(len(recs))
	col := func(f func(m map[string]time.Duration) float64) []float64 {
		out := make([]float64, len(per))
		for i, m := range per {
			out[i] = f(m)
		}
		return out
	}
	named := func(name string) []float64 {
		return col(func(m map[string]time.Duration) float64 { return ms(m[name]) })
	}
	v["core.reduce_ms"] = median(named("core.reduce"))
	v["core.summarize_ms"] = median(named("core.summarize"))
	v["iupt.window_ms"] = median(named("iupt.window"))
	windowRecs := make([]float64, len(recs))
	for i := range recs {
		windowRecs[i] = float64(recs[i].records)
	}
	v["iupt.records_per_window"] = mean(windowRecs)
	v["trace.overhead_ratio"] = ratio(median(named("http.query")), v["query_p50_ms"])
	if clustered {
		v["core.partial_ms"] = median(col(func(m map[string]time.Duration) float64 { return ms(m["core.partial"]) / float64(len(tr.twinB.data)) }))
		v["core.merge_ms"] = median(named("core.merge"))
		v["core.finish_ms"] = median(named("core.finish"))
		// The slower leg sets the fan-out's time.
		slowest := make([]time.Duration, len(recs))
		for _, s := range t.spans {
			if s.name == "http.partial" && s.end-s.start > slowest[s.op] {
				slowest[s.op] = s.end - s.start
			}
		}
		over := make([]float64, len(recs))
		bytesPer := make([]float64, len(recs))
		for i, m := range per {
			over[i] = ms(m["http.query"] - slowest[i] - m["core.merge"] - m["core.finish"])
			bytesPer[i] = float64(recs[i].partialBytes) / float64(len(tr.twinA.data))
		}
		v["server.router_overhead_ms"] = median(over)
		v["cluster.partial_bytes"] = mean(bytesPer)
	} else {
		do, serial := named("core.do"), named("core.do_serial")
		v["core.do_ms"] = median(do)
		v["core.do_serial_ms"] = median(serial)
		v["core.parallel_speedup"] = ratio(median(serial), median(do))
		v["server.http_overhead_ms"] = median(col(func(m map[string]time.Duration) float64 { return ms(m["http.query"] - m["core.do"]) }))
	}
	if p.workload == wlCold {
		rank := col(func(m map[string]time.Duration) float64 {
			return ms(m["core.do_serial"] - m["iupt.window"] - m["core.reduce"] - m["core.summarize"])
		})
		v["core.rank_ms"] = median(rank)
		nonneg := 0
		for _, r := range rank {
			if r >= 0 {
				nonneg++
			}
		}
		v["core.rank_nonneg_ratio"] = float64(nonneg) / float64(len(rank))
	}
	if live {
		v["server.ingest_overhead_ms"] = median(col(func(m map[string]time.Duration) float64 { return ms(m["http.ingest"] - m["core.ingest"]) }))
		v["wal.append_ms"] = median(named("wal.append"))
		perRec := make([]float64, len(recs))
		for i, m := range per {
			perRec[i] = us(m["iupt.append"]) / float64(len(p.traced[i].recs))
		}
		v["iupt.append_us_per_record"] = median(perRec)
	}

	// Self time by span name, for the printed summary.
	self := t.selfTimes()
	totals := map[string]time.Duration{}
	for i, s := range t.spans {
		totals[s.name] += self[i]
	}
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.selfMS = append(res.selfMS, namedValue{name, ms(totals[name]) / float64(len(recs))})
	}
	return t.write(filepath.Join(tr.cfg.outDir, fmt.Sprintf("trace-%s.jsonl", p.workload)))
}
