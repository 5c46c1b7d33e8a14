package tkplq_test

// Compaction equivalence at the facade: a partitioned store whose sealed
// partitions are merged by the background compactor must answer every query
// bit-identically to a flat in-RAM system — before, during (queries racing
// the swap, under -race) and after the compaction, for all three TkPLQ
// algorithms at every tested worker count. Also pins the window cache's
// observable contract: a repeated window is answered without rematerializing
// a single record, and a cached system answers exactly as an uncached one
// through ingest, seals and compactions.

import (
	"slices"
	"sync"
	"testing"

	"tkplq"
)

// sealedSystem builds a partitioned system with one sealed partition per
// ingest batch (plus the initial dataset as partition 1) and an unsealed
// tail, mirroring the flat reference construction in durable_test.go.
func sealedSystem(t *testing.T, dir string, nSealedBatches int, opts tkplq.PartitionedOptions) (*tkplq.System, *tkplq.PartitionedStore) {
	t.Helper()
	opts.Dir = dir
	store, recovered, err := tkplq.OpenPartitioned(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	b, seedTable := durableTestBuilding(t)
	sys, err := tkplq.NewSystem(b.Space, recovered, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetPersister(store)
	if err := sys.Ingest(seedTable.SortedRecords()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Snapshot(); err != nil { // seals partition 1
		t.Fatal(err)
	}
	batches := ingestBatches(b.Space.NumPLocations())
	for i := 0; i < nSealedBatches; i++ {
		if err := sys.Ingest(batches[i]); err != nil {
			t.Fatal(err)
		}
		if err := sys.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	for i := nSealedBatches; i < len(batches); i++ {
		if err := sys.Ingest(batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	return sys, store
}

// flatReference builds the flat in-RAM twin of sealedSystem: same records,
// same arrival order, nothing persisted.
func flatReference(t *testing.T) *tkplq.System {
	t.Helper()
	b, table := durableTestBuilding(t)
	sys, err := tkplq.NewSystem(b.Space, table, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range ingestBatches(b.Space.NumPLocations()) {
		if err := sys.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestCompactionQueryEquivalence(t *testing.T) {
	workerCounts := []int{1, 2, 4}
	ref := flatReference(t)
	want := make(map[int][]*tkplq.Response, len(workerCounts))
	for _, w := range workerCounts {
		want[w] = answerSetWorkers(t, ref, w)
	}

	dir := t.TempDir()
	sys, store := sealedSystem(t, dir, 6, tkplq.PartitionedOptions{})
	for _, w := range workerCounts {
		assertIdentical(t, "before compaction", answerSetWorkers(t, sys, w), want[w])
	}

	res, err := store.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if res.Inputs < 2 {
		t.Fatalf("compaction merged %d partitions, want a real merge over 7 small partitions", res.Inputs)
	}
	before := store.Stats()
	if before.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", before.Compactions)
	}
	for _, w := range workerCounts {
		assertIdentical(t, "after compaction", answerSetWorkers(t, sys, w), want[w])
	}

	// kill -9: reopen a copy of the compacted directory; the battery must
	// still match bit for bit, with zero sealed records decoded at open.
	dir2 := copyDataDir(t, dir)
	store2, table2, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir2})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	ps := store2.Stats()
	if ps.MaterializedRecords != 0 {
		t.Fatalf("reopen decoded %d sealed records, want 0", ps.MaterializedRecords)
	}
	if ps.Partitions >= before.Partitions+int(before.CompactedPartitions) {
		t.Fatalf("reopen sees %d partitions — the compacted inputs came back", ps.Partitions)
	}
	b2, _ := durableTestBuilding(t)
	sys2, err := tkplq.NewSystem(b2.Space, table2, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		assertIdentical(t, "compacted restart", answerSetWorkers(t, sys2, w), want[w])
	}
}

// TestCompactionRacingQueries runs the full battery concurrently with the
// compaction swap (meaningful under -race): every answer, at every worker
// count, must match the flat reference whether it reads the old set, the new
// set, or holds retained old mappings across the swap.
func TestCompactionRacingQueries(t *testing.T) {
	workerCounts := []int{1, 2, 4}
	ref := flatReference(t)
	want := make(map[int][]*tkplq.Response, len(workerCounts))
	for _, w := range workerCounts {
		want[w] = answerSetWorkers(t, ref, w)
	}

	sys, store := sealedSystem(t, t.TempDir(), 6, tkplq.PartitionedOptions{})
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, w := range workerCounts {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < 3; i++ {
					assertIdentical(t, "racing compaction", answerSetWorkers(t, sys, w), want[w])
				}
			}(w)
		}
	}
	close(start)
	if _, err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for _, w := range workerCounts {
		assertIdentical(t, "post-race", answerSetWorkers(t, sys, w), want[w])
	}
}

// TestPartitionBoundaryWindows sweeps query windows over the partition
// seams — endpoints exactly on seal boundaries, windows that fully subsume
// partitions, and empty windows in the gaps between them — and requires the
// flat, partitioned and compacted layouts to agree bit for bit on each.
//
// The data layout: the initial dataset spans [0,600] (partition 1); ingest
// batch i spans [610+5i, 612+5i] (partitions 2..8 for batches 0..6); batches
// 7..9 stay in the WAL head.
func TestPartitionBoundaryWindows(t *testing.T) {
	windows := [][2]int64{
		{0, 600},   // exactly partition 1
		{0, 599},   // one short of the seam
		{0, 610},   // seam of partition 2's first record
		{600, 610}, // straddles the gap, endpoints on two partitions
		{601, 609}, // the empty gap between partitions 1 and 2
		{610, 612}, // exactly partition 2
		{612, 615}, // partition 2's end seam into partition 3's start
		{0, 700},   // everything: all partitions + head
		{645, 700}, // sealed tail partitions + the whole WAL head
		{611, 611}, // single instant inside a partition
		{613, 614}, // empty window between batch spans
		{-50, -1},  // entirely before the data
		{701, 800}, // entirely after the data
		{625, 641}, // subsumes partitions 5-7, clips partition 8's start
	}

	refB, refTable := durableTestBuilding(t)
	ref, err := tkplq.NewSystem(refB.Space, refTable, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range ingestBatches(refB.Space.NumPLocations()) {
		if err := ref.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	slocs := ref.AllSLocations()
	battery := func(sys *tkplq.System) []*tkplq.Response {
		var out []*tkplq.Response
		for _, w := range windows {
			for _, q := range []tkplq.Query{
				{Kind: tkplq.KindTopK, Algorithm: tkplq.BestFirst, K: 5, Ts: tkplq.Time(w[0]), Te: tkplq.Time(w[1]), SLocs: slocs},
				{Kind: tkplq.KindTopK, Algorithm: tkplq.NestedLoop, K: 5, Ts: tkplq.Time(w[0]), Te: tkplq.Time(w[1]), SLocs: slocs},
				{Kind: tkplq.KindTopK, Algorithm: tkplq.Naive, K: 5, Ts: tkplq.Time(w[0]), Te: tkplq.Time(w[1]), SLocs: slocs},
				{Kind: tkplq.KindFlow, Ts: tkplq.Time(w[0]), Te: tkplq.Time(w[1]), SLocs: slocs[:1]},
			} {
				resp, err := sys.Do(t.Context(), q)
				if err != nil {
					t.Fatalf("window [%d,%d]: %v", w[0], w[1], err)
				}
				out = append(out, resp)
			}
		}
		return out
	}
	want := battery(ref)

	parts, store := sealedSystem(t, t.TempDir(), 7, tkplq.PartitionedOptions{})
	assertIdentical(t, "partitioned boundary windows", battery(parts), want)

	if res, err := store.Compact(); err != nil {
		t.Fatal(err)
	} else if res.Inputs < 2 {
		t.Fatalf("compaction merged %d inputs, want a real merge", res.Inputs)
	}
	assertIdentical(t, "compacted boundary windows", battery(parts), want)
}

// TestSummaryCacheSkipsRematerialization pins the window cache's observable
// promise: the second evaluation of an unchanged window decodes zero
// additional records from the store (storage materialized_records stays flat)
// and reports window-cache hits, while an ingest into the window or a
// compaction under it rematerializes once.
func TestSummaryCacheSkipsRematerialization(t *testing.T) {
	sys, store := sealedSystem(t, t.TempDir(), 10, tkplq.PartitionedOptions{})
	// Everything sealed (10 batches + initial dataset), WAL head empty.
	slocs := sys.AllSLocations()
	sealedQ := tkplq.Query{Kind: tkplq.KindTopK, Algorithm: tkplq.BestFirst, K: 5, Ts: 0, Te: 700, SLocs: slocs}

	if _, err := sys.Do(t.Context(), sealedQ); err != nil {
		t.Fatal(err)
	}
	afterFirst := store.Stats().MaterializedRecords
	if afterFirst == 0 {
		t.Fatal("first evaluation materialized nothing — the fixture reads no sealed data")
	}
	cs0 := sys.CacheStats()

	resp1, err := sys.Do(t.Context(), sealedQ)
	if err != nil {
		t.Fatal(err)
	}
	afterSecond := store.Stats().MaterializedRecords
	if afterSecond != afterFirst {
		t.Fatalf("repeated sealed window rematerialized %d records (total %d → %d), want 0",
			afterSecond-afterFirst, afterFirst, afterSecond)
	}
	cs1 := sys.CacheStats()
	if cs1.WindowHits <= cs0.WindowHits {
		t.Fatalf("window hits %d → %d, want an increase on the repeated window", cs0.WindowHits, cs1.WindowHits)
	}
	if cs1.WindowEntries == 0 || cs1.WindowBytes == 0 {
		t.Fatalf("window cache reports %d entries / %d bytes, want live state", cs1.WindowEntries, cs1.WindowBytes)
	}

	// The cached answer is still the real answer.
	refResp, err := flatReference(t).Do(t.Context(), sealedQ)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "cached sealed window", []*tkplq.Response{resp1}, []*tkplq.Response{refResp})

	// Ingest into the window: the next evaluation must see the new record —
	// the head count moves the window's identity, and the answer tracks a
	// flat system fed the same record.
	extra := tkplq.Record{OID: 999, T: 660, Samples: tkplq.SampleSet{{Loc: 1, Prob: 1}}}
	if err := sys.Ingest([]tkplq.Record{extra}); err != nil {
		t.Fatal(err)
	}
	ref2 := flatReference(t)
	if err := ref2.Ingest([]tkplq.Record{extra}); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Do(t.Context(), sealedQ)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := ref2.Do(t.Context(), sealedQ)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "window after head ingest", []*tkplq.Response{got}, []*tkplq.Response{want2})

	// Seal and compaction change the partition identity set: the first
	// evaluation after them re-materializes, the next is cached again.
	if err := sys.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if res, err := store.Compact(); err != nil {
		t.Fatal(err)
	} else if res.Inputs < 2 {
		t.Fatalf("compaction merged %d inputs, want a real merge", res.Inputs)
	}
	got2, err := sys.Do(t.Context(), sealedQ)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "window after compaction", []*tkplq.Response{got2}, []*tkplq.Response{want2})
	base := store.Stats().MaterializedRecords
	got3, err := sys.Do(t.Context(), sealedQ)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "repeated window after compaction", []*tkplq.Response{got3}, []*tkplq.Response{want2})
	if d := store.Stats().MaterializedRecords - base; d != 0 {
		t.Fatalf("repeated post-compaction window rematerialized %d records, want 0", d)
	}
}

// TestCacheDifferentialPartitioned pins what a hit is when partitions vouch
// for the window: a partitioned system with the cache against a flat in-RAM
// twin asked with Query.DisableCache, through ingest behind, into and beside
// the window, seals and a compaction, by Do and by DoPartial. (That cached
// answers equal fresh ones through seeded ingest, seals and compactions, by
// every door, is internal/core's FuzzDoors.)
func TestCacheDifferentialPartitioned(t *testing.T) {
	ctx := t.Context()
	sys, store := sealedSystem(t, t.TempDir(), 4, tkplq.PartitionedOptions{})
	b, table := durableTestBuilding(t)
	plain, err := tkplq.NewSystem(b.Space, table, tkplq.Options{}) // asked with the cache bypassed
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range ingestBatches(b.Space.NumPLocations()) {
		if err := plain.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	nextOID := tkplq.ObjectID(1000)
	ingest := func(ts ...tkplq.Time) {
		t.Helper()
		recs := make([]tkplq.Record, len(ts))
		for i, at := range ts {
			recs[i] = tkplq.Record{OID: nextOID, T: at, Samples: tkplq.SampleSet{
				{Loc: tkplq.PLocID(int(nextOID) % b.Space.NumPLocations()), Prob: 0.7},
				{Loc: tkplq.PLocID(int(nextOID+1) % b.Space.NumPLocations()), Prob: 0.3},
			}}
			nextOID++
		}
		for _, s := range []*tkplq.System{sys, plain} {
			if err := s.Ingest(recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	slocs := sys.AllSLocations()

	// What a hit is. The window sits inside the first partition.
	q := tkplq.Query{Kind: tkplq.KindTopK, Algorithm: tkplq.NestedLoop, K: len(slocs), Ts: 100, Te: 400, SLocs: slocs, Workers: 1}
	ref := q
	ref.DisableCache = true
	ask := func(label string, wantHit bool) {
		t.Helper()
		before, decoded := sys.CacheStats(), store.Stats().MaterializedRecords
		got, err := sys.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Do(ctx, ref)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, label, []*tkplq.Response{got}, []*tkplq.Response{want})
		after, st := sys.CacheStats(), got.Stats
		if st.ObjectsComputed == 0 {
			t.Fatalf("%s: no object computed — the window is empty", label)
		}
		if wantHit {
			if st.CacheHits != int64(st.ObjectsComputed) || st.CacheMisses != 0 {
				t.Errorf("%s: %d hits / %d misses over %d computed objects, want every object a hit", label, st.CacheHits, st.CacheMisses, st.ObjectsComputed)
			}
			if after.WindowHits != before.WindowHits+1 {
				t.Errorf("%s: window hits %d → %d, want the window itself served from the cache", label, before.WindowHits, after.WindowHits)
			}
			if d := store.Stats().MaterializedRecords - decoded; d != 0 {
				t.Errorf("%s: rematerialized %d records, want 0", label, d)
			}
		} else {
			if st.CacheHits != 0 || st.CacheMisses != int64(st.ObjectsComputed) {
				t.Errorf("%s: %d hits / %d misses over %d computed objects, want every object a miss", label, st.CacheHits, st.CacheMisses, st.ObjectsComputed)
			}
			if after.WindowMisses != before.WindowMisses+1 {
				t.Errorf("%s: window misses %d → %d, want one rematerialization", label, before.WindowMisses, after.WindowMisses)
			}
		}
		// The shard door over the same window, now a hit: the twin's rows.
		gotP, err := sys.DoPartial(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if wantP, err := plain.DoPartial(ctx, ref); err != nil || !slices.Equal(gotP.OIDs, wantP.OIDs) || !slices.Equal(gotP.Rows, wantP.Rows) {
			t.Fatalf("%s: partial rows differ from the flat twin's (%v)", label, err)
		}
	}
	ingest(250) // whatever the walk left cached for this window is now stale
	ask("first sighting", false)
	ask("repeat of an untouched window", true)
	ingest(6000, 50)
	ask("after ingest elsewhere", true)
	ingest(251)
	ask("after ingest into the window", false)
	ask("repeat after the ingest", true)
	if err := sys.Snapshot(); err != nil { // the head's span [50, 6000] covers the window
		t.Fatal(err)
	}
	ask("first sighting after a seal over the window", false)
	ask("repeat after the seal", true)
	for i := 0; i < 4; i++ { // enough small partitions for a merge, none near the window
		ingest(7000 + tkplq.Time(i))
		if err := sys.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	ask("after seals elsewhere", true)
	if res, err := store.Compact(); err != nil {
		t.Fatal(err)
	} else if res.Inputs < 2 {
		t.Fatalf("compaction merged %d inputs, want a real merge", res.Inputs)
	}
	ask("first sighting after a compaction under the window", false)
	ask("repeat after the compaction", true)
}
