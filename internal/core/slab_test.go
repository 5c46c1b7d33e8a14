package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/parts"
)

// Tests of the slabs (slab.go): reductions assembled from them against the
// raw path, what the engine keeps of them, and what a query over them costs.

// stickyRecords returns about n records of objects 1..objects from tick t0
// on, in canonical order. Each object keeps one P-location set for a few
// records, with fresh probabilities each time, so its runs are long enough
// for a window to cut; now and then an object reports twice in one tick.
func stickyRecords(rng *rand.Rand, fig *indoor.Figure1, objects, n int, t0 iupt.Time) []iupt.Record {
	plocs := fig.PLocs[:]
	type state struct {
		locs []indoor.PLocID
		left int
	}
	st := make([]state, objects)
	var out []iupt.Record
	for t := t0; len(out) < n; t++ {
		for o := range st {
			if rng.Intn(5) == 0 {
				continue
			}
			for rep := 0; rep < 1+boolInt(rng.Intn(20) == 0); rep++ {
				s := &st[o]
				if s.left == 0 {
					perm := rng.Perm(len(plocs))[:1+rng.Intn(3)]
					s.locs = s.locs[:0]
					for _, i := range perm {
						s.locs = append(s.locs, plocs[i])
					}
					s.left = 1 + rng.Intn(6)
				}
				s.left--
				set := make(iupt.SampleSet, len(s.locs))
				sum := 0.0
				for i, l := range s.locs {
					set[i] = iupt.Sample{Loc: l, Prob: 0.1 + rng.Float64()}
					sum += set[i].Prob
				}
				for i := range set {
					set[i].Prob /= sum
				}
				out = append(out, iupt.Record{OID: iupt.ObjectID(o + 1), T: t, Samples: set})
			}
		}
	}
	return out
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// slabFixture is a partitioned table with three sealed parts of two slabs
// each and a head, cut from one stream. Part 2 holds late records of objects
// 1 and 2 from part 1's span, so windows across the first seam interleave in
// T; the head holds late records of object 3 from part 3's span.
type slabFixture struct {
	space *indoor.Space
	slocs []indoor.SLocID
	store *parts.Store
	tb    *iupt.Table
}

func newSlabFixture(t *testing.T) *slabFixture {
	t.Helper()
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(37))
	store, tb, err := parts.Open(parts.Options{Dir: t.TempDir(), Compact: parts.CompactionPolicy{MinInputs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	add := func(recs []iupt.Record, seal bool) {
		if err := store.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			tb.Append(rec)
		}
		if seal {
			if err := store.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One stream, cut into parts mid-run and mid-tick: runs and ticks
	// straddle every seam.
	recs := stickyRecords(rng, fig, 5, 16000, 0)
	add(recs[:5000], true)
	late := stickyRecords(rng, fig, 2, 40, recs[2500].T)
	add(append(slices.Clone(recs[5000:10000]), late...), true)
	add(recs[10000:15000], true)
	head := slices.Clone(recs[15000:])
	for _, rec := range stickyRecords(rng, fig, 3, 30, recs[14800].T) {
		if rec.OID == 3 {
			head = append(head, rec)
		}
	}
	add(head, false)
	return &slabFixture{space: fig.Space, slocs: fig.SLocs[:], store: store, tb: tb}
}

// boundaries returns the instants a window edge should sit on: the seams
// between parts and the head, the slab seams, and run boundaries of objects
// in every slab.
func (f *slabFixture) boundaries(t *testing.T, e *Engine) []iupt.Time {
	t.Helper()
	var out []iupt.Time
	rng := rand.New(rand.NewSource(38))
	at := func(p iupt.SealedPart, pos int) iupt.Time { return p.AppendRecords(nil, nil, pos, pos+1)[0].T }
	for _, p := range f.tb.Sealed() {
		lo, hi := p.Span()
		out = append(out, lo, hi)
		for k := 0; k*slabRecords < p.Len(); k++ {
			out = append(out, at(p, k*slabRecords))
			s := e.buildSlab(p, k*slabRecords)
			for range 3 {
				j := rng.Intn(len(s.oids))
				r := s.objRun[j] + int32(rng.Intn(int(s.objRun[j+1]-s.objRun[j])))
				out = append(out, at(p, s.base+int(s.pos[s.runStart(r)])))
			}
		}
	}
	head := f.tb.HeadRecords()
	out = append(out, head[0].T, head[len(head)-1].T)
	slices.Sort(out)
	return slices.Compact(out)
}

// windows returns windows starting and ending on, next to and between the
// boundaries.
func slabWindows(bounds []iupt.Time) [][2]iupt.Time {
	rng := rand.New(rand.NewSource(39))
	var out [][2]iupt.Time
	for _, b := range bounds {
		for d := iupt.Time(-1); d <= 1; d++ {
			l := iupt.Time(30 + rng.Intn(500))
			out = append(out, [2]iupt.Time{b + d, b + d + l}, [2]iupt.Time{b + d - l, b + d})
		}
	}
	return out
}

// headCount returns the number of head records oid has in the window.
func headCount(tb *iupt.Table, oid iupt.ObjectID, win [2]iupt.Time) int {
	n := 0
	for _, rec := range tb.HeadRecords() {
		if rec.OID == oid && rec.T >= win[0] && rec.T <= win[1] {
			n++
		}
	}
	return n
}

// sameReduction reports where two reductions differ, bit for bit; "" when
// they do not.
func sameReduction(got, want *Reduction) string {
	if len(got.Seq) != len(want.Seq) {
		return fmt.Sprintf("%d reduced sets, want %d", len(got.Seq), len(want.Seq))
	}
	for j := range want.Seq {
		g, w := got.Seq[j], want.Seq[j]
		if len(g) != len(w) {
			return fmt.Sprintf("set %d has %d samples, want %d", j, len(g), len(w))
		}
		for k := range w {
			if g[k].Loc != w[k].Loc || math.Float64bits(g[k].Prob) != math.Float64bits(w[k].Prob) {
				return fmt.Sprintf("set %d sample %d is %v, want %v", j, k, g[k], w[k])
			}
		}
	}
	if !slices.Equal(got.PSLs, want.PSLs) {
		return fmt.Sprintf("PSLs %v, want %v", got.PSLs, want.PSLs)
	}
	return ""
}

// TestSlabReductionDifferential: on a partitioned table with slab seams,
// partition seams, a head seam, late records interleaving across a seal and,
// later, a compaction, every reduction a window over slabs assembles is
// bit-identical to the plain loop's over the window's raw sequence
// (GroupSequences of RecordsInRange), for engines with all of Algorithm 1,
// without intra-merge, without inter-merge and without any reduction.
// Windows start and end on, next to and between run boundaries and seams.
// Over a share of them, top-k by Best-First, Nested-Loop and Naive, DoPartial
// and presence answer exactly as the same question over a flat copy of the
// table (no sealed part, so no slab), at 1 and 4 workers, from kept windows,
// private ones and ones asked with Query.DisableCache alike, and from
// goroutines racing the first build of each slab.
func TestSlabReductionDifferential(t *testing.T) {
	f := newSlabFixture(t)
	ctx := context.Background()
	optionSets := []Options{{}, {DisableIntraMerge: true}, {DisableInterMerge: true}, {DisableReduction: true}}
	var whole, raw, interleaved int
	check := func(stage string, windows [][2]iupt.Time) {
		for _, opts := range optionSets {
			at := fmt.Sprintf("%s %+v", stage, opts)
			eng := NewEngine(f.space, opts)
			plain := NewEngine(f.space, opts)
			scr := eng.getScratch()
			for _, win := range windows {
				w, _, err := eng.readWindow(ctx, f.tb, win[0], win[1], nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				ref := iupt.GroupSequences(f.tb.RecordsInRange(win[0], win[1]))
				if !slices.Equal(w.OIDs, ref.OIDs) {
					t.Fatalf("%s window %v: objects %v, want %v", at, win, w.OIDs, ref.OIDs)
				}
				for i := range ref.OIDs {
					if n := w.records(i); n != len(ref.Seqs[i]) {
						t.Fatalf("%s window %v object %d: %d records, want %d", at, win, ref.OIDs[i], n, len(ref.Seqs[i]))
					}
					got := eng.reduceAt(w, i, scr, nil)
					want, _ := plain.ReduceData(ref.Seqs[i], nil)
					if diff := sameReduction(got, want); diff != "" {
						t.Fatalf("%s window %v object %d: %s", at, win, ref.OIDs[i], diff)
					}
					switch {
					case w.pieces == nil || w.pieces[i] == nil:
						raw++
						if len(ref.Seqs[i]) > headCount(f.tb, ref.OIDs[i], win) {
							interleaved++ // it has sealed records, yet takes the plain loop
						}
					default:
						for _, p := range w.pieces[i] {
							if p.s != nil {
								whole += int(p.hi - p.lo)
							}
						}
					}
				}
			}
			eng.putScratch(scr)
		}
	}
	probe := NewEngine(f.space, Options{})
	windows := slabWindows(f.boundaries(t, probe))
	check("sealed", windows)

	kinds := []string{"bf", "nl", "naive", "partial", "presence"}
	query := func(kind string, win [2]iupt.Time, oid iupt.ObjectID) Query {
		q := Query{Kind: KindTopK, Algorithm: AlgoBestFirst, K: 3, Ts: win[0], Te: win[1], SLocs: f.slocs}
		switch kind {
		case "nl", "partial":
			q.Algorithm, q.K = AlgoNestedLoop, len(f.slocs)
		case "naive":
			q.Algorithm, q.K, q.SLocs = AlgoNaive, 2, f.slocs[:4]
		case "presence":
			q = Query{Kind: KindPresence, OID: oid, Ts: win[0], Te: win[1], SLocs: f.slocs[4:5]}
		}
		return q
	}
	answerOn := func(eng *Engine, tb *iupt.Table, q Query, kind string) string {
		if kind == "partial" {
			p, err := eng.DoPartial(ctx, tb, q)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%v %v %d", p.OIDs, p.Rows, p.Stats.ObjectsComputed)
		}
		resp, err := eng.Do(ctx, tb, q)
		if err != nil {
			t.Fatal(err)
		}
		st := resp.Stats
		return fmt.Sprintf("%v %v %d %d %d %d", resp.Results, math.Float64bits(resp.Flow), st.ObjectsTotal, st.ObjectsComputed, st.SampleSetsOriginal, st.SampleSetsReduced)
	}
	answer := func(eng *Engine, q Query, kind string) string { return answerOn(eng, f.tb, q, kind) }
	flat := flatCopy(f.tb)
	for _, opts := range optionSets {
		for _, workers := range []int{1, 4} {
			o := opts
			o.Workers = workers
			kept := NewEngine(f.space, o)
			private := NewEngine(f.space, o)
			private.cache.cap = 1
			bypassed := NewEngine(f.space, o) // asked with the cache bypassed
			plain := NewEngine(f.space, o)    // asked over the flat copy
			for i := 0; i < len(windows); i += 11 {
				kind := kinds[(i/11)%len(kinds)]
				q := query(kind, windows[i], iupt.ObjectID(1+i%5))
				want := answerOn(plain, flat, q, kind)
				for name, eng := range map[string]*Engine{"kept": kept, "private": private, "bypassed": bypassed} {
					ask := q
					if eng == bypassed {
						ask = uncached(q)
					}
					if got := answer(eng, ask, kind); got != want {
						t.Fatalf("%+v workers=%d window %v %s (%s): %s, want %s", opts, workers, windows[i], kind, name, got, want)
					}
				}
			}
		}
	}

	// Goroutines racing the first build of every slab.
	racing := NewEngine(f.space, Options{Workers: 2})
	plain := NewEngine(f.space, Options{})
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(windows); i += 9 {
				q := query("nl", windows[i], 0)
				if got, want := answer(racing, q, "nl"), answerOn(plain, flat, q, "nl"); got != want {
					t.Errorf("racing window %v: %s, want %s", windows[i], got, want)
					return
				}
			}
		}()
	}
	wg.Wait()

	if _, err := f.store.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := len(f.tb.Sealed()); n != 1 {
		t.Fatalf("the compaction left %d parts, want 1", n)
	}
	check("compacted", slabWindows(f.boundaries(t, probe))[:60])
	t.Logf("%d whole runs shared, %d objects on the plain loop (%d interleaved)", whole, raw, interleaved)
	if whole == 0 || interleaved == 0 {
		t.Errorf("%d whole runs shared and %d interleaved objects: the windows did not reach both paths", whole, interleaved)
	}
}

// TestSlabsScopedAndFreed: two stores whose partitions carry the same
// identities, read by one engine, never share a slab — each table's answers
// are its own, as the same questions over a flat copy get them — and after a
// compaction and a query the engine's slabs, and SlabBytes, count the live
// parts only.
func TestSlabsScopedAndFreed(t *testing.T) {
	fig := indoor.Figure1Space()
	ctx := context.Background()
	var tables []*iupt.Table
	var stores []*parts.Store
	for seed := range 2 {
		store, tb, err := parts.Open(parts.Options{Dir: t.TempDir(), Compact: parts.CompactionPolicy{MinInputs: 2}})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		recs := stickyRecords(rand.New(rand.NewSource(int64(40+seed))), fig, 4, 6000, 0)
		for _, batch := range [][]iupt.Record{recs[:3000], recs[3000:]} {
			if err := store.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			for _, rec := range batch {
				tb.Append(rec)
			}
			if err := store.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		tables, stores = append(tables, tb), append(stores, store)
	}
	for i, p := range tables[0].Sealed() {
		if q := tables[1].Sealed()[i]; p.Identity() != q.Identity() {
			t.Fatalf("part %d: identities %d and %d, want the stores to reuse them", i, p.Identity(), q.Identity())
		}
	}
	eng := NewEngine(fig.Space, Options{})
	plain := NewEngine(fig.Space, Options{})
	ask := func(label string) {
		for _, tb := range tables {
			for _, win := range [][2]iupt.Time{{0, 700}, {500, 1500}, {1000, 2000}} {
				q := Query{Kind: KindTopK, Algorithm: AlgoNestedLoop, K: len(fig.SLocs), Ts: win[0], Te: win[1], SLocs: fig.SLocs[:]}
				got, err := eng.Do(ctx, tb, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := plain.Do(ctx, flatCopy(tb), q)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResponse(t, fmt.Sprintf("%s window %v", label, win), want, got)
			}
		}
	}
	live := func(label string) {
		t.Helper()
		st := eng.slabs
		st.mu.Lock()
		var want int64
		n := 0
		for p, ps := range st.parts {
			if !slices.Contains(ps.table.Sealed(), p) {
				t.Errorf("%s: the engine keeps slabs of a part its table no longer holds", label)
			}
			for i := range ps.cells {
				if s := ps.cells[i].s.Load(); s != nil {
					want += s.bytes()
				}
			}
			n++
		}
		st.mu.Unlock()
		if n != len(tables[0].Sealed())+len(tables[1].Sealed()) {
			t.Errorf("%s: the engine keeps slabs of %d parts, want every live part of both tables", label, n)
		}
		if got := eng.CacheStats().SlabBytes; got != want || got == 0 {
			t.Errorf("%s: SlabBytes %d, want the live slabs' %d", label, got, want)
		}
	}
	ask("two stores")
	live("two stores")
	if _, err := stores[0].Compact(); err != nil {
		t.Fatal(err)
	}
	if n := len(tables[0].Sealed()); n != 1 {
		t.Fatalf("the compaction left %d parts, want 1", n)
	}
	ask("after a compaction")
	live("after a compaction")
}

// TestSlabWindowAllocBudget: a Best-First query over built slabs, sighted for
// the first time into a full cache, allocates its answer, its summaries and
// its rank index; the window's pieces, the runs it decodes and its reductions
// live in recycled memory, and whole runs are the slab's. Same fixture as
// TestColdWindowAllocBudget (30 objects, a 400-unit window over three sealed
// partitions, a 2-vCPU x86-64 box): 32.0 KB per query decoding every record
// into recycled memory before slabs, 32.2–32.6 KB over slabs.
func TestSlabWindowAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	space, recs := rankIndexData(t)
	store, tb, err := parts.Open(parts.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, batch := range [][]iupt.Record{recs[:len(recs)/3], recs[len(recs)/3 : 2*len(recs)/3], recs[2*len(recs)/3:]} {
		if err := store.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		for _, rec := range batch {
			tb.Append(rec)
		}
		if err := store.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(space, Options{Workers: 1})
	eng.cache.cap = 1
	ctx := context.Background()
	next := iupt.Time(0)
	ask := func() {
		next++
		if _, err := eng.Do(ctx, tb, Query{Algorithm: AlgoBestFirst, K: 10, Ts: next, Te: next + 400, SLocs: allSLocs(space)}); err != nil {
			t.Fatal(err)
		}
	}
	for range 5 { // build the slabs, fill the cache, warm the pools
		ask()
	}
	if eng.CacheStats().SlabBytes == 0 {
		t.Fatal("no slab was built")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 50
	perQuery := uint64(1 << 62)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			ask()
		}
		runtime.ReadMemStats(&after)
		perQuery = min(perQuery, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	t.Logf("a Best-First query over slabs allocates %d bytes", perQuery)
	if perQuery > 48<<10 {
		t.Errorf("a Best-First query over slabs allocates %d bytes, budget 48 KiB", perQuery)
	}
}
