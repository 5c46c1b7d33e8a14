package core

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/parts"
	"tkplq/internal/wal"
)

// FuzzDoors is the door matrix (DESIGN.md §4): every way to ask the engine a
// question — Do (and its work counters), DoBatch (and SharedBatch),
// DoPartial on 1–3 shards merged and finished, Driver.Answer over a 1–3-shard
// source (one pass per group) and a monitor stepped to the data — answers bit
// for bit as a fresh one-worker engine with the cache bypassed does over a
// flat copy of the table, and on certain data as certainPresence counts. A
// seed picks the data, the options, the layout (in memory, sealed, compacted)
// and the door engine's cache (cacheModes), then runs rounds of questions at
// workers 1, 2 and 4, each asked twice, with events between them. Replay a
// failing input with go test ./internal/core -run 'FuzzDoors/<name>'.
func FuzzDoors(f *testing.F) {
	for seed := int64(0); seed < 18; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		h := uint64(seed)
		a := int(h / 2 % 9) // layout, option and cache as a Latin square; h%2 picks the data
		d := newDoors(t, seed, h%2 == 1, a%3, [...]Options{{}, {StrictPaths: true}, {DisableReduction: true}}[a/3], (a+a/3)%3)
		for round := range 4 {
			if round > 0 {
				for range 1 + d.rng.Intn(5) {
					d.event()
					d.checkMonitor(fmt.Sprintf("seed %d before round %d", seed, round))
				}
			}
			workers := []int{1, 2, 4}[(int(h%3)+round)%3]
			d.round(fmt.Sprintf("seed %d round %d workers=%d cache %s", seed, round, workers, cacheModes[d.cache]), workers)
		}
	})
}

// cacheModes names an input's cache: kept, unadmitted (cache.cap = 1, so
// the cache is full after its first window) or bypassed (every question
// asked with Query.DisableCache).
var cacheModes = [...]string{"kept", "unadmitted", "bypassed"}

// doors is one FuzzDoors input's world: the table in its layout, its store
// when sealed, every record ingested so far, the door engine and a live
// monitor on the table.
type doors struct {
	t       *testing.T
	rng     *rand.Rand
	fig     *indoor.Figure1
	opts    Options
	certain bool
	cache   int          // index into cacheModes
	store   *parts.Store // nil in memory
	live    *liveTable
	all     []iupt.Record
	now     iupt.Time // the head of the data
	eng     *Engine   // the door engine, kept across rounds
	mon     *monitor
}

func newDoors(t *testing.T, seed int64, certain bool, layout int, opts Options, cache int) *doors {
	fig := indoor.Figure1Space()
	d := &doors{t: t, rng: rand.New(rand.NewSource(seed)), fig: fig, opts: opts, certain: certain, cache: cache, now: 61, eng: NewEngine(fig.Space, opts)}
	if cache == 1 {
		d.eng.cache.cap = 1
	}
	tb := iupt.NewTable()
	if layout > 0 {
		var err error
		d.store, tb, err = parts.Open(parts.Options{Dir: t.TempDir(), Policy: wal.SyncInterval, SyncEvery: time.Hour, Compact: parts.CompactionPolicy{MinInputs: 2}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.store.Close() })
	}
	lo := opts
	lo.Workers = 1 + d.rng.Intn(4)
	d.live = &liveTable{eng: NewEngine(fig.Space, lo), tb: tb}
	var recs []iupt.Record
	for oid, n := iupt.ObjectID(1), iupt.ObjectID(4+d.rng.Intn(6)); oid <= n; oid++ {
		for at := iupt.Time(d.rng.Intn(3)); at <= 60; at += iupt.Time(1 + d.rng.Intn(3)) {
			recs = append(recs, d.record(oid, at))
		}
	}
	slices.SortStableFunc(recs, func(a, b iupt.Record) int { return cmp.Compare(a.T, b.T) })
	n := len(recs)
	d.ingest(recs[:n/3]...)
	d.seal()
	d.ingest(recs[n/3 : 2*n/3]...)
	d.seal()
	d.ingest(recs[2*n/3:]...)
	if layout == 2 {
		d.compact()
	}
	q := d.slocs()
	d.mon = d.live.monitor(q, 1+d.rng.Intn(len(q)), []iupt.Time{8, 40, 1000}[d.rng.Intn(3)])
	return d
}

// record draws a record of object oid at time at and files it in d.all. On
// certain data it is one sample of probability 1 in a P-location class other
// than those of the object's neighbours in time, so Algorithm 1 leaves every
// sequence as it is; such data has no two records of an object at one time.
func (d *doors) record(oid iupt.ObjectID, at iupt.Time) iupt.Record {
	rec := iupt.Record{OID: oid, T: at, Samples: randSampleSet(d.rng, d.fig.PLocs[:], 4)}
	if d.certain {
		for slices.ContainsFunc(d.all, func(r iupt.Record) bool { return r.OID == oid && r.T == rec.T }) {
			rec.T++
		}
		var near []indoor.PLocID // the classes of the object's records just before and after
		for _, side := range []iupt.Time{-1, 1} {
			best := -1
			for i, r := range d.all {
				if r.OID == oid && (r.T-rec.T)*side > 0 && (best < 0 || (r.T-d.all[best].T)*side < 0) {
					best = i
				}
			}
			if best >= 0 {
				near = append(near, d.fig.Space.ClassRep(d.all[best].Samples[0].Loc))
			}
		}
		p := d.fig.PLocs[d.rng.Intn(len(d.fig.PLocs))]
		for slices.Contains(near, d.fig.Space.ClassRep(p)) {
			p = d.fig.PLocs[d.rng.Intn(len(d.fig.PLocs))]
		}
		rec.Samples = iupt.SampleSet{{Loc: p, Prob: 1}}
	}
	d.all = append(d.all, rec)
	return rec
}

// ingest lands a batch in the store's log, then in the table under the live
// table's barrier with the monitors told, as System.Ingest does.
func (d *doors) ingest(recs ...iupt.Record) {
	if d.store != nil {
		d.must(d.store.AppendBatch(recs))
	}
	d.live.ingest(recs...)
}

// seal and compact act on the store; in memory there is none.
func (d *doors) seal() {
	if d.store != nil {
		d.must(d.store.Seal())
	}
}

func (d *doors) compact() {
	if d.store != nil {
		_, err := d.store.Compact()
		d.must(err)
	}
}

func (d *doors) must(err error) {
	if err != nil {
		d.t.Helper()
		d.t.Fatal(err)
	}
}

// event is one step of the schedule between rounds.
func (d *doors) event() {
	var next func() (iupt.ObjectID, iupt.Time)
	object := func() iupt.ObjectID { return 1 + iupt.ObjectID(d.rng.Intn(12)) }
	switch d.rng.Intn(9) {
	case 0: // behind the sealed data, into the windows
		next = func() (iupt.ObjectID, iupt.Time) { return object(), iupt.Time(d.rng.Intn(61)) }
	case 1, 2: // a second report of an object at a time it reported
		next = func() (iupt.ObjectID, iupt.Time) { r := d.all[d.rng.Intn(len(d.all))]; return r.OID, r.T }
	case 3, 4: // in order at the head
		next = func() (iupt.ObjectID, iupt.Time) { d.now += iupt.Time(d.rng.Intn(3)); return object(), d.now }
	case 5: // far outside every window
		next = func() (iupt.ObjectID, iupt.Time) { return object(), 500 + iupt.Time(d.rng.Intn(100)) }
	case 6:
		d.seal()
		return
	case 7:
		d.compact()
		return
	default:
		return
	}
	batch := make([]iupt.Record, 1+d.rng.Intn(3))
	for i := range batch {
		batch[i] = d.record(next())
	}
	d.ingest(batch...)
}

// slocs returns a random non-empty subset of the S-locations in random order.
func (d *doors) slocs() []indoor.SLocID {
	q := slices.Clone(d.fig.SLocs[:])
	d.rng.Shuffle(len(q), func(a, b int) { q[a], q[b] = q[b], q[a] })
	return q[:1+d.rng.Intn(len(q))]
}

// questions draws a batch of every kind over a small pool of windows, so
// members both share and split groups. Some make an earlier member a
// Best-First top-k and ask it again with a new k, which the window's rank
// slot must not answer from the earlier search.
func (d *doors) questions(bypass bool) []Query {
	windows := [][2]iupt.Time{{0, 60}, {0, 60}, {5, 50}, {20, 40}, {30, 30}, {0, 600}}
	qs := make([]Query, 1+d.rng.Intn(6))
	for i := range qs {
		if i > 0 && d.rng.Intn(4) == 0 {
			j := d.rng.Intn(i)
			qs[j].Kind, qs[j].Algorithm, qs[j].K = KindTopK, AlgoBestFirst, max(qs[j].K, 1)
			qs[i] = qs[j]
			qs[i].K = 1 + d.rng.Intn(len(qs[i].SLocs)+1)
			continue
		}
		w := windows[d.rng.Intn(len(windows))]
		q := Query{Kind: QueryKind(d.rng.Intn(4)), Ts: w[0], Te: w[1], SLocs: d.slocs(),
			Workers: []int{0, 0, 0, 2}[d.rng.Intn(4)], DisableCache: bypass || d.rng.Intn(4) == 0}
		switch q.Kind {
		case KindTopK, KindDensity:
			q.K = 1 + d.rng.Intn(len(q.SLocs)+1)
			q.Algorithm = Algorithm(d.rng.Intn(3))
		default:
			q.SLocs, q.OID = q.SLocs[:1], iupt.ObjectID(d.rng.Intn(14))
		}
		qs[i] = q
	}
	return qs
}

// reference returns a fresh reference engine — one worker, the seed's
// options — and its answer to a question over flat, with the cache bypassed.
func (d *doors) reference(flat *iupt.Table) (*Engine, func(Query) *Response) {
	o := d.opts
	o.Workers = 1
	ref := NewEngine(d.fig.Space, o)
	return ref, func(q Query) *Response {
		resp, err := ref.Do(context.Background(), flat, refQuery(q))
		d.must(err)
		return resp
	}
}

// refQuery is q as the reference asks it: on the engine's one worker, with
// the cache bypassed.
func refQuery(q Query) Query {
	q.Workers, q.DisableCache = 0, true
	return q
}

// groupOf is the pass a driver answers q in; defaultWorkers is what
// Query.Workers == 0 means to that driver.
func groupOf(q Query, defaultWorkers int) batchKey {
	return batchKey{q.Ts, q.Te, Options{Workers: cmp.Or(q.Workers, defaultWorkers)}.workerCount(), q.DisableCache}
}

// work is the part of Stats that must not depend on how a question is asked.
func work(s Stats) Stats {
	s.Workers, s.CacheHits, s.CacheMisses, s.Coalesced, s.SharedBatch = 0, 0, 0, 0, 0
	return s
}

// round asks one batch of questions through every door under one
// configuration and holds every answer to the reference's.
func (d *doors) round(at string, workers int) {
	t, ctx := d.t, context.Background()
	tb, flat := d.live.tb, flatCopy(d.live.tb)
	ref, ask := d.reference(flat)
	qs := d.questions(d.cache == 2)
	want := make([]*Response, len(qs))
	for i, q := range qs {
		want[i] = ask(q)
		d.checkAlgorithms(at, ask, flat, q, want[i])
	}
	same := func(door string, i int, got *Response) {
		t.Helper()
		if !resultsEqual(got.Results, want[i].Results) || math.Float64bits(got.Flow) != math.Float64bits(want[i].Flow) {
			t.Fatalf("%s: %s member %d (%+v): %v flow %v, reference %v flow %v", at, door, i, qs[i], got.Results, got.Flow, want[i].Results, want[i].Flow)
		}
	}
	// shared holds a batch's answers to the reference's, and each member's
	// SharedBatch to its group's size (0 alone); it returns the group count.
	shared := func(door string, got []*Response, defaultWorkers int) int {
		t.Helper()
		size := make(map[batchKey]int)
		for _, q := range qs {
			size[groupOf(q, defaultWorkers)]++
		}
		for i, q := range qs {
			same(door, i, got[i])
			if n := size[groupOf(q, defaultWorkers)]; got[i].Stats.SharedBatch != n && (n > 1 || got[i].Stats.SharedBatch != 0) {
				t.Fatalf("%s: %s member %d: SharedBatch %d in a group of %d", at, door, i, got[i].Stats.SharedBatch, n)
			}
		}
		return len(size)
	}

	eng := d.eng // idle between rounds, so its pool size can change here
	eng.opts.Workers, eng.workers = workers, workers
	shards := splitTable(flat, shardTopology(t, 1+d.rng.Intn(3)))
	if len(shards) == 1 {
		shards[0] = tb // one shard is the door engine over the table itself
	}
	for range 2 {
		for i, q := range qs {
			got, err := eng.Do(ctx, tb, q)
			d.must(err)
			same("Do", i, got)
			if work(got.Stats) != work(want[i].Stats) {
				t.Fatalf("%s: Do member %d (%+v): work %+v, reference %+v", at, i, q, got.Stats, want[i].Stats)
			}
		}
		got, err := eng.DoBatch(ctx, tb, qs)
		d.must(err)
		shared("DoBatch", got, workers)

		for i, q := range qs {
			ps := make([]*Partial, len(shards))
			for s, stb := range shards {
				pe := eng
				if len(shards) > 1 {
					pe = NewEngine(d.fig.Space, eng.opts)
				}
				ps[s], err = pe.DoPartial(ctx, stb, q)
				d.must(err)
			}
			merged, err := MergePartials(ps)
			d.must(err)
			wantP, err := ref.DoPartial(ctx, flat, refQuery(q))
			d.must(err)
			if !slices.Equal(merged.OIDs, wantP.OIDs) || !sameBits(merged.Rows, wantP.Rows) {
				t.Fatalf("%s: %d-shard partial of member %d (%+v) differs from the reference's", at, len(shards), i, q)
			}
			fin, err := eng.FinishPartial(q, merged)
			d.must(err)
			same(fmt.Sprintf("FinishPartial of a %s over %d shards", q.Kind, len(shards)), i, fin)
		}
	}

	src := &shardSource{space: d.fig.Space, opts: d.opts, shards: splitTable(flat, shardTopology(t, 1+d.rng.Intn(3)))}
	got, err := NewDriver(d.fig.Space).Answer(ctx, src, qs)
	d.must(err)
	if n := shared(fmt.Sprintf("Driver.Answer over %d shards", len(src.shards)), got, 0); src.passes != n {
		t.Fatalf("%s: Driver.Answer took %d passes for %d window groups", at, src.passes, n)
	}
	d.checkMonitor(at)
}

// checkMonitor steps the monitor to the data and holds its update to the
// data's window, [Te-window, Te] with Te the latest record's time, and to
// the reference over that window under all three algorithms.
func (d *doors) checkMonitor(at string) {
	u := current(d.mon)
	_, ask := d.reference(flatCopy(d.live.tb))
	te := slices.MaxFunc(d.all, func(a, b iupt.Record) int { return cmp.Compare(a.T, b.T) }).T
	if u.Records != d.live.tb.Len() || u.Te != te || u.Ts != max(0, te-d.mon.window) {
		d.t.Fatalf("%s: monitor covers [%d, %d] over %d records, table has %d up to %d", at, u.Ts, u.Te, u.Records, d.live.tb.Len(), te)
	}
	for _, algo := range []Algorithm{AlgoNaive, AlgoNestedLoop, AlgoBestFirst} {
		mq := Query{Kind: KindTopK, Algorithm: algo, K: d.mon.k, Ts: u.Ts, Te: u.Te, SLocs: d.mon.query}
		if w := ask(mq); !resultsEqual(u.Results, w.Results) {
			d.t.Fatalf("%s: monitor over [%d, %d]: %v, reference %s %v", at, u.Ts, u.Te, u.Results, algo, w.Results)
		}
	}
}

// checkAlgorithms holds a reference answer to the paper's agreements: a
// top-k under any algorithm is the head of the Naive ranking of every
// S-location, restricted to its query set, and a flow is that ranking's
// entry. On certain data every flow of that ranking and every presence is
// certainPresence's, exactly.
func (d *doors) checkAlgorithms(at string, ask func(Query) *Response, flat *iupt.Table, q Query, got *Response) {
	t, space := d.t, d.fig.Space
	full := ask(Query{Kind: KindTopK, K: len(d.fig.SLocs), Ts: q.Ts, Te: q.Te, SLocs: d.fig.SLocs[:]})
	var pres map[iupt.ObjectID][]float64
	if d.certain {
		pres = certainPresence(space, flat.RecordsInRange(q.Ts, q.Te), d.opts.StrictPaths)
	}
	var head []Result
	for _, r := range full.Results {
		flow := 0.0
		for _, oid := range slices.Sorted(maps.Keys(pres)) {
			flow += pres[oid][space.CellOfSLoc(r.SLoc)]
		}
		if d.certain && math.Float64bits(r.Flow) != math.Float64bits(flow) {
			t.Fatalf("%s: flow of S-location %d over [%d, %d] is %v, counted %v", at, r.SLoc, q.Ts, q.Te, r.Flow, flow)
		}
		if slices.Contains(q.SLocs, r.SLoc) {
			head = append(head, r)
		}
	}
	switch q.Kind {
	case KindTopK:
		if head = head[:min(q.K, len(head))]; !resultsEqual(got.Results, head) {
			t.Fatalf("%s: %+v answers %v, the Naive ranking starts %v", at, q, got.Results, head)
		}
	case KindFlow:
		if math.Float64bits(got.Flow) != math.Float64bits(head[0].Flow) {
			t.Fatalf("%s: %+v answers %v, the Naive ranking has %v", at, q, got.Flow, head[0].Flow)
		}
	case KindPresence:
		want := 0.0
		if p := pres[q.OID]; p != nil {
			want = p[space.CellOfSLoc(q.SLocs[0])]
		}
		if d.certain && math.Float64bits(got.Flow) != math.Float64bits(want) {
			t.Fatalf("%s: %+v answers %v, counted %v", at, q, got.Flow, want)
		}
	}
}

// certainPresence is Equation 1 on certain data, computed from the space
// alone: each record is one P-location of probability 1, so an object has
// one path, and its presence in cell c is 1 − Π(1 − 1/|M_IL(a,b)|) over its
// steps (a, b) with c ∈ M_IL(a,b). A step with an empty M_IL is a hard cut:
// by default each stretch between cuts is a path of its own, joined by
// Equation 2's union rule, which multiplies out to the same product, a lone
// record being the step (a, a); under StrictPaths the object has no valid
// path and presence 0. recs are in canonical order (ascending time per
// object).
func certainPresence(space *indoor.Space, recs []iupt.Record, strict bool) map[iupt.ObjectID][]float64 {
	seqs := make(map[iupt.ObjectID][]indoor.PLocID)
	for _, r := range recs {
		seqs[r.OID] = append(seqs[r.OID], r.Samples[0].Loc)
	}
	out := make(map[iupt.ObjectID][]float64, len(seqs))
	for oid, seq := range seqs {
		miss, cuts := make([]float64, space.NumCells()), false
		for c := range miss {
			miss[c] = 1
		}
		joined := func(j int) bool { return j > 0 && j < len(seq) && len(space.MIL(seq[j-1], seq[j])) > 0 }
		for j := range seq {
			var cells []indoor.CellID
			switch {
			case joined(j):
				cells = space.MIL(seq[j-1], seq[j])
			case !joined(j + 1):
				cells = space.MIL(seq[j], seq[j])
			}
			cuts = cuts || j > 0 && !joined(j)
			for _, c := range cells {
				miss[c] *= 1 - 1/float64(len(cells))
			}
		}
		for c := range miss {
			if miss[c] = 1 - miss[c]; strict && cuts {
				miss[c] = 0
			}
		}
		out[oid] = miss
	}
	return out
}

// sameBits reports whether two float slices are identical bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
