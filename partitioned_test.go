package tkplq_test

// Crash/restart determinism — the contract behind tkplqd -data-dir: a system
// over the durable store — sealed mmap'd partitions plus a WAL-backed head,
// restarted with kill -9 semantics (the store is abandoned, never Closed)
// and a torn final frame — must answer every query bit-identically to an
// in-RAM system that never persisted anything, for all three
// TkPLQ algorithms at every worker count, concurrently under the race
// detector. Also pins the partitioned restart-work contract at the facade:
// recovery replays only the WAL tail and decodes zero sealed records.

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tkplq"
)

// answerSetWorkers evaluates the comparison query battery — all three TkPLQ
// algorithms, density and one flow, everything the server surfaces — with a
// per-query worker-pool override, so it can pin bit-identical answers at
// several pool sizes.
func answerSetWorkers(t *testing.T, sys *tkplq.System, workers int) []*tkplq.Response {
	t.Helper()
	queries := []tkplq.Query{
		{Kind: tkplq.KindTopK, Algorithm: tkplq.BestFirst, K: 5, Ts: 0, Te: 700, SLocs: sys.AllSLocations(), Workers: workers},
		{Kind: tkplq.KindTopK, Algorithm: tkplq.NestedLoop, K: 5, Ts: 0, Te: 700, SLocs: sys.AllSLocations(), Workers: workers},
		{Kind: tkplq.KindTopK, Algorithm: tkplq.Naive, K: 5, Ts: 0, Te: 700, SLocs: sys.AllSLocations(), Workers: workers},
		{Kind: tkplq.KindDensity, K: 5, Ts: 0, Te: 700, SLocs: sys.AllSLocations(), Workers: workers},
		{Kind: tkplq.KindFlow, Ts: 0, Te: 700, SLocs: sys.AllSLocations()[:1], Workers: workers},
	}
	out := make([]*tkplq.Response, len(queries))
	for i, q := range queries {
		resp, err := sys.Do(t.Context(), q)
		if err != nil {
			t.Fatalf("workers=%d query %d: %v", workers, i, err)
		}
		out[i] = resp
	}
	return out
}

// assertSameRecords compares two record slices bit for bit (Float64bits on
// every probability).
func assertSameRecords(t *testing.T, label string, got, want []tkplq.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].OID != want[i].OID || got[i].T != want[i].T || len(got[i].Samples) != len(want[i].Samples) {
			t.Fatalf("%s: record %d differs: %v vs %v", label, i, got[i], want[i])
		}
		for j := range want[i].Samples {
			if got[i].Samples[j].Loc != want[i].Samples[j].Loc ||
				math.Float64bits(got[i].Samples[j].Prob) != math.Float64bits(want[i].Samples[j].Prob) {
				t.Fatalf("%s: record %d sample %d differs: %v vs %v", label, i, j, got[i].Samples[j], want[i].Samples[j])
			}
		}
	}
}

func TestPartitionedCrashRestartEquivalence(t *testing.T) {
	workerCounts := []int{1, 2, 4}

	// Reference: an in-RAM system that never persists. Capture the
	// battery after nine batches and after all ten, at every worker count.
	refB, refTable := durableTestBuilding(t)
	ref, err := tkplq.NewSystem(refB.Space, refTable, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches := ingestBatches(refB.Space.NumPLocations())
	for _, b := range batches[:9] {
		if err := ref.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	want9 := make(map[int][]*tkplq.Response, len(workerCounts))
	for _, w := range workerCounts {
		want9[w] = answerSetWorkers(t, ref, w)
	}
	if err := ref.Ingest(batches[9]); err != nil {
		t.Fatal(err)
	}
	want10 := make(map[int][]*tkplq.Response, len(workerCounts))
	for _, w := range workerCounts {
		want10[w] = answerSetWorkers(t, ref, w)
	}

	// Partitioned run: ingest the initial dataset through the live path,
	// seal it, five batches, seal again, four more batches into the head —
	// then die without Close (kill -9) with batch 9 torn mid-append.
	dir := t.TempDir()
	store, recovered, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Len() != 0 {
		t.Fatalf("fresh dir recovered %d records", recovered.Len())
	}
	durB, durTable := durableTestBuilding(t)
	dur, err := tkplq.NewSystem(durB.Space, recovered, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dur.Snapshot(); err != tkplq.ErrNoSnapshotter {
		t.Fatalf("Snapshot without a store = %v, want ErrNoSnapshotter", err)
	}
	dur.SetPersister(store)
	if err := dur.Ingest(durTable.SortedRecords()); err != nil {
		t.Fatal(err)
	}
	if err := dur.Snapshot(); err != nil { // seals partition 1
		t.Fatal(err)
	}
	for _, b := range batches[:5] {
		if err := dur.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := dur.Snapshot(); err != nil { // seals partition 2
		t.Fatal(err)
	}
	for _, b := range batches[5:] {
		if err := dur.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close. Recover a copy with the final frame torn.
	dir2 := copyDataDir(t, dir)
	segs, err := filepath.Glob(filepath.Join(dir2, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one active segment, got %v (%v)", segs, err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	parts, err := filepath.Glob(filepath.Join(dir2, "part-*.tkp"))
	if err != nil || len(parts) != 2 {
		t.Fatalf("want two sealed partitions, got %v (%v)", parts, err)
	}

	// Recover. Before anything touches the records: restart work must be
	// the WAL tail alone — batches 5..8 (batch 9 is torn) — with zero
	// sealed records decoded.
	store2, table2, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir2})
	if err != nil {
		t.Fatal(err)
	}
	ps := store2.Stats()
	if ps.Partitions != 2 {
		t.Fatalf("recovered %d partitions, want 2", ps.Partitions)
	}
	if ps.MaterializedRecords != 0 {
		t.Fatalf("open decoded %d sealed records, want 0", ps.MaterializedRecords)
	}
	wantTail := int64(4 * len(batches[0]))
	if ps.WAL.ReplayedRecords != wantTail {
		t.Fatalf("replayed %d records, want the %d-record WAL tail", ps.WAL.ReplayedRecords, wantTail)
	}
	if ps.WAL.TornBytes == 0 {
		t.Fatal("recovery reported no torn bytes for the chopped frame")
	}

	recB, _ := durableTestBuilding(t)
	rec, err := tkplq.NewSystem(recB.Space, table2, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetPersister(store2)

	// The merged (partitions + head) record sequence is bit-identical to the
	// flat reference at nine batches.
	_, flat9 := durableTestBuilding(t)
	for _, b := range batches[:9] {
		for _, r := range b {
			flat9.Append(r)
		}
	}
	assertSameRecords(t, "recovered records", table2.SortedRecords(), flat9.SortedRecords())

	// Concurrent batteries at every worker count, under -race.
	var wg sync.WaitGroup
	for _, w := range workerCounts {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				assertIdentical(t, "partitioned (torn tail)", answerSetWorkers(t, rec, w), want9[w])
			}(w)
		}
	}
	wg.Wait()

	// Re-ingest the torn batch: now identical to the ten-batch reference.
	if err := rec.Ingest(batches[9]); err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		assertIdentical(t, "partitioned + reingested", answerSetWorkers(t, rec, w), want10[w])
	}

	// Graceful restart cycle: seal the head, reopen, and the battery must
	// still match with an empty WAL tail.
	if err := rec.Snapshot(); err != nil { // seals partition 3
		t.Fatal(err)
	}
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}
	store3, table3, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir2})
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	ps3 := store3.Stats()
	if ps3.Partitions != 3 || ps3.WAL.ReplayedRecords != 0 || ps3.MaterializedRecords != 0 {
		t.Fatalf("post-seal reopen stats = %+v, want 3 partitions and zero replay/decode", ps3)
	}
	rec2B, _ := durableTestBuilding(t)
	rec2, err := tkplq.NewSystem(rec2B.Space, table3, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		assertIdentical(t, "sealed restart", answerSetWorkers(t, rec2, w), want10[w])
	}
}
