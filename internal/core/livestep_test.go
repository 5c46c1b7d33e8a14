package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// TestMonitorStepDifferential feeds the golden fleet (bench/e2e's shape: the
// default building, 40 objects) to two monitors over 300-second windows, 1 to
// 20 seconds of data per tick, and after every tick holds every retained
// summary, bit for bit, to Summarize of a fresh reduction of the object's
// window, and the ranking to a from-scratch TopK. On top of the stream it
// forces the events a stepped walk must survive: late records before an
// object's first hard cut, between hard cuts and after the last one; a
// record that folds into an object's last run, one that joins its last run
// but one, and one whose P-location set splits a run; a jump longer than the
// window; an object whose records all leave while the others stay; and
// objects that appear and vanish. One monitor asks for every S-location, the
// other for two, so objects are pruned and unpruned as their windows move.
func TestMonitorStepDifferential(t *testing.T) {
	space, recs := goldenRecords(t)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"strict", Options{StrictPaths: true}},
		// A small path budget keeps enumeration to short segments; longer
		// ones fall back to the DP walk, which the stats count.
		{"enum", Options{Engine: EngineEnum, pathBudget: 32}},
	} {
		t.Run(tc.name, func(t *testing.T) { stepDifferential(t, space, recs, tc.opts) })
	}
}

// The forced events of stepDifferential.
const (
	evLateBefore = iota // a late record before the object's first hard cut
	evLateBetween
	evLateAfter
	evFold  // a record that folds into the object's last run
	evSplit // a record whose P-location set splits a run
	evJoin  // a record that joins the object's last run but one
	evJump  // a tick that jumps more than a window ahead
	evDrop  // an object's records all leave the window while others stay
	evGuest // an object that appears, then vanishes
	evCount
)

func stepDifferential(t *testing.T, space *indoor.Space, recs []iupt.Record, opts Options) {
	const (
		window   = goldenWindow
		span     = iupt.Time(1100)
		jumpAt   = iupt.Time(600)      // the stream skips (jumpAt, jumpAt+window+40)
		silent   = iupt.ObjectID(7)    // its records in [silentAt, silentAt+2·window) are withheld
		silentAt = iupt.Time(60)       //
		guest    = iupt.ObjectID(1000) // guest i copies object i's records in [guestAt, guestAt+guestFor)
		guestAt  = iupt.Time(100)      //
		guestFor = iupt.Time(100)      //
	)
	opts.Workers = 2 // the monitor fans out; the reference does not
	eng := NewEngine(space, opts)
	refOpts := opts
	refOpts.Workers = 1
	ref := NewEngine(space, refOpts)
	live := &liveTable{eng: eng, tb: iupt.NewTable()}
	all := make([]indoor.SLocID, space.NumSLocations())
	for i := range all {
		all[i] = indoor.SLocID(i)
	}
	feeds := []struct {
		q []indoor.SLocID
		k int
		m *monitor
	}{{q: all, k: 10}, {q: []indoor.SLocID{3, 17}, k: 2}}
	for i := range feeds {
		feeds[i].m = live.monitor(feeds[i].q, feeds[i].k, window)
	}

	rng := rand.New(rand.NewSource(50))
	var seen [evCount]int
	guestIn := false
	next, now := 0, iupt.Time(0)
	horizon := iupt.Time(0)
	for tick := 0; now < span; tick++ {
		prev := now
		now += iupt.Time(1 + rng.Intn(20))
		if prev <= jumpAt && jumpAt < now {
			now += window + 40
			seen[evJump]++
		}
		var batch []iupt.Record
		for ; next < len(recs) && recs[next].T < now; next++ {
			rec := recs[next]
			switch {
			case rec.T >= prev && jumpAt < rec.T && rec.T < jumpAt+window+40:
				continue // skipped by the jump
			case rec.OID == silent && silentAt <= rec.T && rec.T < silentAt+2*window:
				continue
			}
			batch = append(batch, rec)
			if rec.OID <= 3 && guestAt <= rec.T && rec.T < guestAt+guestFor {
				rec.OID += guest
				batch = append(batch, rec)
			}
		}
		batch = append(batch, forcedRecords(rng, space, feeds[0].m, batch, now, tick, &seen)...)
		if len(batch) == 0 {
			continue
		}
		live.ingest(batch...)
		for _, rec := range batch {
			horizon = max(horizon, rec.T)
		}
		ts := max(horizon-window, 0)
		fresh := freshWindow(ref, live.tb, ts, horizon)
		for _, f := range feeds {
			u := current(f.m)
			if u.Ts != ts || u.Te != horizon {
				t.Fatalf("tick %d: window [%d, %d], want [%d, %d]", tick, u.Ts, u.Te, ts, horizon)
			}
			checkRetained(t, ref, f.m, f.q, fresh, tick)
			want, _, err := ref.TopK(live.tb, f.q, f.k, ts, horizon, AlgoNestedLoop)
			if err != nil {
				t.Fatal(err)
			}
			bitEqual(t, "stepped ranking", u.Results, want)
		}
		objs := feeds[0].m.objs
		if !holds(objs, silent) && len(objs) > 0 && horizon < jumpAt {
			seen[evDrop]++ // the silent object left a window the others hold
		}
		if holds(objs, guest+1) {
			guestIn = true
		} else if guestIn {
			seen[evGuest]++ // appeared, then vanished
			guestIn = false
		}
	}
	for ev, n := range seen {
		if n == 0 {
			t.Errorf("forced event %d never happened", ev)
		}
	}
	if n := seen[evLateBetween]; n < 3 {
		t.Errorf("a late record between hard cuts was forced %d times, want at least 3", n)
	}
}

// holds reports whether a monitor's object list holds oid.
func holds(objs []*liveObject, oid iupt.ObjectID) bool {
	for _, o := range objs {
		if o.oid == oid {
			return true
		}
	}
	return false
}

// freshObject is one object of a window reduced and summarized from
// scratch.
type freshObject struct {
	oid iupt.ObjectID
	red *Reduction
	sum *ObjectSummary
}

// freshWindow reduces and summarizes every object of [ts, te] from scratch,
// with no query pruning.
func freshWindow(ref *Engine, tb *iupt.Table, ts, te iupt.Time) []freshObject {
	w := iupt.GroupSequences(tb.RecordsInRange(ts, te))
	out := make([]freshObject, len(w.OIDs))
	for i, oid := range w.OIDs {
		red, _ := ref.ReduceData(w.Seqs[i], nil)
		sum, _ := ref.Summarize(red.Seq)
		out[i] = freshObject{oid, red, sum}
	}
	return out
}

// checkRetained holds every object the monitor retains to the fresh window:
// the same objects, pruned where the fresh reduction's PSLs miss q, and
// otherwise the same summary bits.
func checkRetained(t *testing.T, ref *Engine, m *monitor, q []indoor.SLocID, fresh []freshObject, tick int) {
	t.Helper()
	if len(fresh) != len(m.objs) {
		t.Fatalf("tick %d: monitor holds %d objects, the window %d", tick, len(m.objs), len(fresh))
	}
	for i, f := range fresh {
		o := m.objs[i]
		if o.oid != f.oid {
			t.Fatalf("tick %d: object %d at position %d, want %d", tick, o.oid, i, f.oid)
		}
		if !ref.opts.DisableReduction && !meets(f.red.PSLs, q) {
			if o.sum != nil {
				t.Fatalf("tick %d: object %d is pruned but the monitor holds a summary", tick, f.oid)
			}
			continue
		}
		if o.sum == nil {
			t.Fatalf("tick %d: object %d is not pruned but the monitor holds no summary", tick, f.oid)
		}
		if want := f.sum; !sameSummaryBits(o.sum, want) {
			t.Fatalf("tick %d: object %d's stepped summary {valid %x, scale %x, segments %d, %d masses} differs from a fresh one {valid %x, scale %x, segments %d, %d masses}",
				tick, f.oid, math.Float64bits(o.sum.ValidMass), math.Float64bits(o.sum.LogScale), o.sum.Segments, len(o.sum.PassMass),
				math.Float64bits(want.ValidMass), math.Float64bits(want.LogScale), want.Segments, len(want.PassMass))
		}
	}
}

// sameSummaryBits compares ValidMass, LogScale, Segments and every PassMass
// entry bit for bit.
func sameSummaryBits(a, b *ObjectSummary) bool {
	if math.Float64bits(a.ValidMass) != math.Float64bits(b.ValidMass) || math.Float64bits(a.LogScale) != math.Float64bits(b.LogScale) ||
		a.Segments != b.Segments || a.Paths != b.Paths || len(a.PassMass) != len(b.PassMass) {
		return false
	}
	for i, cm := range a.PassMass {
		if cm.Cell != b.PassMass[i].Cell || math.Float64bits(cm.Mass) != math.Float64bits(b.PassMass[i].Mass) {
			return false
		}
	}
	return true
}

// forcedRecords returns the tick's forced records, chosen from what monitor m
// holds before the tick: on every third tick an object gets a late record
// inside one of the three stretches its hard cuts bound, a record that folds
// into its last run, or one that splits a run, the five kinds in turn, and on
// the tick after, one that joins its last run but one. The objects are taken
// in turn too, each for fifteen ticks, so every object taken meets every
// kind; a late record between hard cuts goes to the first object from the
// one in turn on that has two. batch is the tick's stream records and now
// the end of the tick.
func forcedRecords(rng *rand.Rand, space *indoor.Space, m *monitor, batch []iupt.Record, now iupt.Time, tick int, seen *[evCount]int) []iupt.Record {
	if tick%3 == 2 || len(m.objs) == 0 {
		return nil
	}
	ev := (tick / 3) % 5
	if tick%3 == 1 {
		ev = evJoin
	}
	pick := (tick / 15) % len(m.objs)
	o := m.objs[pick]
	for i := 0; ev == evLateBetween && i < len(m.objs); i++ {
		if c := m.objs[(pick+i)%len(m.objs)]; len(hardCuts(space, c.red)) > 1 {
			o = c
			break
		}
	}
	if len(o.red) < 2 {
		return nil
	}
	at := func(r int) int { // the record index of run r's first record
		idx := 0
		for _, n := range o.runLens[:r] {
			idx += int(n)
		}
		return idx
	}
	other := func(x iupt.SampleSet) iupt.SampleSet { // another record's samples, with another P-location set
		for range 8 {
			y := o.seq[rng.Intn(len(o.seq))].Samples
			if !samePLocSet(x, y) {
				return y
			}
		}
		return iupt.SampleSet{{Loc: x[0].Loc + 1, Prob: 1}}
	}
	switch ev {
	case evLateBefore, evLateBetween, evLateAfter:
		cuts := hardCuts(space, o.red)
		lo, hi := 0, len(o.red)
		switch {
		case len(cuts) > 0 && ev == evLateBefore:
			hi = cuts[0]
		case len(cuts) > 1 && ev == evLateBetween:
			lo, hi = cuts[0], cuts[len(cuts)-1]
		case len(cuts) > 0 && ev == evLateAfter:
			lo = cuts[len(cuts)-1]
		case ev != evLateBefore:
			return nil // no stretch of this kind
		}
		idx := at(lo + rng.Intn(hi-lo))
		seen[ev]++
		return []iupt.Record{{OID: o.oid, T: o.seq[idx].T, Samples: other(o.seq[idx].Samples)}}
	case evFold:
		last := o.seq[len(o.seq)-1].Samples
		for _, rec := range batch {
			if rec.OID == o.oid {
				last = rec.Samples
			}
		}
		fold := make(iupt.SampleSet, len(last))
		for i, s := range last {
			fold[i] = iupt.Sample{Loc: s.Loc, Prob: last[len(last)-1-i].Prob}
		}
		seen[ev]++
		return []iupt.Record{{OID: o.oid, T: now - 1, Samples: fold}}
	case evJoin:
		// Spliced after the run's first record, so the set rebuilt first
		// is the one the walk's checkpoint was taken after.
		x := o.seq[at(len(o.red)-2)]
		join := make(iupt.SampleSet, len(x.Samples))
		for i, s := range x.Samples {
			join[i] = iupt.Sample{Loc: s.Loc, Prob: x.Samples[len(x.Samples)-1-i].Prob}
		}
		seen[ev]++
		return []iupt.Record{{OID: o.oid, T: x.T, Samples: join}}
	default:
		for r, n := range o.runLens {
			if idx := at(r); n >= 2 && o.seq[idx+1].T > o.seq[idx].T {
				seen[evSplit]++
				return []iupt.Record{{OID: o.oid, T: o.seq[idx].T, Samples: other(o.seq[idx].Samples)}}
			}
		}
		return nil
	}
}

// hardCuts returns the indexes of the reduced sets a step without a single
// valid sample pair leads into: the cuts every walk makes.
func hardCuts(space *indoor.Space, red []iupt.SampleSet) []int {
	var cuts []int
	for i := 1; i < len(red); i++ {
		hard := true
		for _, a := range red[i-1] {
			for _, b := range red[i] {
				hard = hard && len(space.MIL(a.Loc, b.Loc)) == 0
			}
		}
		if hard {
			cuts = append(cuts, i)
		}
	}
	return cuts
}

// TestLiveEnumCheckpoint steps one live object under EngineEnum on a fresh
// scratch, twice: its last set but one is larger than the first set of its
// segment, so the walk's checkpoint there may copy no matrix (an enumerating
// walk sweeps none, and the scratch's holds only the first set), and the
// second step resumes from that checkpoint. Both summaries must be fresh
// Summarize's.
func TestLiveEnumCheckpoint(t *testing.T) {
	fig := indoor.Figure1Space()
	// The paper's p6 is c6 alone, p2, p4 and p5 each pair c6 with another
	// cell, p1 is c4 and c5, and p3 c3 and c4: no two samples of a set share
	// their cells, so intra-merging keeps every one.
	p := fig.PLocs // p[0] is the paper's p1
	e := NewEngine(fig.Space, Options{Engine: EngineEnum})
	o := newLiveObject(1, iupt.Sequence{
		{T: 1, Samples: iupt.SampleSet{{Loc: p[5], Prob: 1}}},
		{T: 2, Samples: iupt.SampleSet{{Loc: p[1], Prob: 0.3}, {Loc: p[3], Prob: 0.2}, {Loc: p[4], Prob: 0.1}, {Loc: p[5], Prob: 0.4}}},
		{T: 3, Samples: iupt.SampleSet{{Loc: p[0], Prob: 1}}},
	})
	hits := make([]bool, fig.Space.NumPLocations())
	for i := range hits {
		hits[i] = true
	}
	for step := range 2 {
		if step == 1 {
			o.splice(iupt.Record{OID: 1, T: 4, Samples: iupt.SampleSet{{Loc: p[2], Prob: 1}}})
		}
		o.step(e, hits, newSummarizeScratch())
		if n := len(o.red); o.ck.at != n-2 || o.ck.open != 0 || step == 0 && len(o.red[n-2]) <= len(o.red[0]) {
			t.Fatalf("step %d: %d sets, checkpoint after set %d of the segment at %d; want the last set but one, larger than the first", step, n, o.ck.at, o.ck.open)
		}
		want, _ := e.Summarize(o.red)
		if !sameSummaryBits(o.sum, want) {
			t.Fatalf("step %d: the kept walk's summary differs from a fresh Summarize", step)
		}
	}
}

// monitorTickFleet is BenchmarkMonitorTick's and TestMonitorTickAllocBudget's
// feed: a monitor over every S-location, built from the golden fleet's first
// window, then warmed with 100 ticks, and the fleet's later records cut into
// 4-second ticks. A tick goes straight to the monitor's mailbox: after its
// build a monitor never reads the table.
func monitorTickFleet(tb testing.TB) (*monitor, [][]iupt.Record) {
	tb.Helper()
	space, recs := goldenRecords(tb)
	live := &liveTable{eng: NewEngine(space, Options{Workers: 1}), tb: iupt.NewTable()}
	all := make([]indoor.SLocID, space.NumSLocations())
	for i := range all {
		all[i] = indoor.SLocID(i)
	}
	i := 0
	for i < len(recs) && recs[i].T < goldenWindow {
		i++
	}
	live.ingest(recs[:i]...)
	m := live.monitor(all, 10, goldenWindow)
	current(m)
	var ticks [][]iupt.Record
	for end := goldenWindow + 4; i < len(recs); end += 4 {
		j := i
		for j < len(recs) && recs[j].T < end {
			j++
		}
		ticks = append(ticks, recs[i:j])
		i = j
	}
	for _, tick := range ticks[:100] {
		m.enqueue(tick)
		current(m)
	}
	return m, ticks[100:]
}

// TestMonitorTickAllocBudget: a steady tick — 4 seconds of the golden fleet
// through a warm monitor over 300-second windows, one worker — allocates
// less than once per dirty object: the sets and step pairs it keeps are
// carved from the object's arenas, the walk's segments, pass masses,
// checkpoint and summary reuse the object's own arrays, and the object list
// and dirty list are the monitor's. What is left is per tick — the mailbox,
// the ranking — and the arenas' next chunks (0.39 per dirty object measured;
// the per-object recompute it replaced allocated 3.05).
func TestMonitorTickAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	m, ticks := monitorTickFleet(t)
	ticks = ticks[:200]
	dirty := m.dirtyTotal
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tick := range ticks {
		m.enqueue(tick)
		current(m)
	}
	runtime.ReadMemStats(&after)
	dirty = m.dirtyTotal - dirty
	perObject := float64(after.Mallocs-before.Mallocs) / float64(dirty)
	t.Logf("a steady tick allocates %.2f times per dirty object (%.1f dirty objects per tick)", perObject, float64(dirty)/float64(len(ticks)))
	if perObject > 0.5 {
		t.Errorf("a steady tick allocates %.2f times per dirty object, want ≤ 0.5", perObject)
	}
}

// BenchmarkMonitorTick times one tick of the live feed: 4 seconds of the
// golden fleet (40 objects) evaluated by a monitor over 300-second windows,
// on one worker.
func BenchmarkMonitorTick(b *testing.B) {
	b.ReportAllocs()
	m, ticks := monitorTickFleet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if k := i % len(ticks); k == 0 && i > 0 {
			b.StopTimer() // the fleet's day is over: start it again
			m, ticks = monitorTickFleet(b)
			b.StartTimer()
		}
		m.enqueue(ticks[i%len(ticks)])
		current(m)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/tick")
}
