package parts

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/wal"
)

func testRecords(r *rand.Rand, n int, tMax int) []iupt.Record {
	recs := make([]iupt.Record, n)
	for i := range recs {
		ns := 1 + r.Intn(3)
		samples := make(iupt.SampleSet, ns)
		rem := 1.0
		for j := 0; j < ns-1; j++ {
			p := rem * (0.2 + 0.6*r.Float64())
			samples[j] = iupt.Sample{Loc: indoor.PLocID(r.Intn(50)), Prob: p}
			rem -= p
		}
		samples[ns-1] = iupt.Sample{Loc: indoor.PLocID(50 + r.Intn(50)), Prob: rem}
		recs[i] = iupt.Record{OID: iupt.ObjectID(r.Intn(10)), T: iupt.Time(r.Intn(tMax + 1)), Samples: samples}
	}
	return recs
}

func sortedCopy(recs []iupt.Record) []iupt.Record {
	t := iupt.NewTable()
	for _, rec := range recs {
		t.Append(rec)
	}
	return t.SortedRecords()
}

// rangeOf reads p's records of [ts, te] as a table read does: Locate, then
// AppendRecords into fresh memory.
func rangeOf(p *Partition, ts, te iupt.Time) []iupt.Record {
	lo, hi := p.Locate(ts, te)
	return p.AppendRecords(nil, nil, lo, hi)
}

func sameRecords(t *testing.T, ctx string, want, got []iupt.Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d records, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.OID != g.OID || w.T != g.T || len(w.Samples) != len(g.Samples) {
			t.Fatalf("%s: record %d: (%d,%d,%d samples) vs (%d,%d,%d samples)",
				ctx, i, g.OID, g.T, len(g.Samples), w.OID, w.T, len(w.Samples))
		}
		for j := range w.Samples {
			if w.Samples[j].Loc != g.Samples[j].Loc ||
				math.Float64bits(w.Samples[j].Prob) != math.Float64bits(g.Samples[j].Prob) {
				t.Fatalf("%s: record %d sample %d differs bitwise", ctx, i, j)
			}
		}
	}
}

func writePartFile(t *testing.T, path string, recs []iupt.Record) {
	t.Helper()
	buf, err := Encode(recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	recs := sortedCopy(testRecords(r, 500, 100))
	path := filepath.Join(t.TempDir(), "part-00000001.tkp")
	writePartFile(t, path, recs)
	for _, mode := range []VerifyMode{VerifyFull, VerifyFooter} {
		p, err := OpenFile(path, mode)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if p.Len() != len(recs) {
			t.Fatalf("Len = %d, want %d", p.Len(), len(recs))
		}
		lo, hi := p.Span()
		if lo != recs[0].T || hi != recs[len(recs)-1].T {
			t.Fatalf("Span = (%d,%d), want (%d,%d)", lo, hi, recs[0].T, recs[len(recs)-1].T)
		}
		sameRecords(t, "full range", recs, rangeOf(p, lo, hi))
		// Windowed reads against the reference subslice.
		for q := 0; q < 50; q++ {
			ts := iupt.Time(r.Intn(110)) - 5
			te := ts + iupt.Time(r.Intn(40))
			var want []iupt.Record
			for _, rec := range recs {
				if rec.T >= ts && rec.T <= te {
					want = append(want, rec)
				}
			}
			sameRecords(t, fmt.Sprintf("window [%d,%d]", ts, te), want, rangeOf(p, ts, te))
		}
		// Objects: distinct ascending, matching a table over the records.
		wantObjs := func() []iupt.ObjectID {
			tab := iupt.NewTable()
			for _, rec := range recs {
				tab.Append(rec)
			}
			return tab.Objects()
		}()
		if !slices.Equal(p.Objects(), wantObjs) {
			t.Fatalf("Objects = %v, want %v", p.Objects(), wantObjs)
		}
		p.Close()
	}
}

func TestEncodeRejects(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Error("Encode accepted an empty partition")
	}
	out := []iupt.Record{
		{OID: 1, T: 5, Samples: iupt.SampleSet{{Loc: 1, Prob: 1}}},
		{OID: 1, T: 3, Samples: iupt.SampleSet{{Loc: 1, Prob: 1}}},
	}
	if _, err := Encode(out); err == nil {
		t.Error("Encode accepted out-of-order records")
	}
	if _, err := Encode([]iupt.Record{{OID: 1, T: 1}}); err == nil {
		t.Error("Encode accepted an empty sample set")
	}
}

// TestCorruptionSweep is the byte-granular corruption sweep: every
// single-byte flip anywhere in a partition file, every truncation length,
// and trailing garbage must all fail VerifyFull open loudly — a corrupt
// sealed partition is never silently served.
func TestCorruptionSweep(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	recs := sortedCopy(testRecords(r, 40, 50))
	buf, err := Encode(recs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "part-00000001.tkp")

	// Sanity: the pristine image opens.
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if p, err := OpenFile(path, VerifyFull); err != nil {
		t.Fatalf("pristine image does not open: %v", err)
	} else {
		p.Close()
	}

	// Every single-byte flip.
	mut := make([]byte, len(buf))
	for off := 0; off < len(buf); off++ {
		copy(mut, buf)
		mut[off] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if p, err := OpenFile(path, VerifyFull); err == nil {
			p.Close()
			t.Fatalf("flip at offset %d of %d opened cleanly", off, len(buf))
		}
	}

	// Every truncation length, including a torn-off footer.
	for size := 0; size < len(buf); size++ {
		if err := os.WriteFile(path, buf[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		if p, err := OpenFile(path, VerifyFull); err == nil {
			p.Close()
			t.Fatalf("truncation to %d of %d bytes opened cleanly", size, len(buf))
		}
	}

	// Trailing garbage after a valid image.
	if err := os.WriteFile(path, append(append([]byte(nil), buf...), 0xde, 0xad), 0o644); err != nil {
		t.Fatal(err)
	}
	if p, err := OpenFile(path, VerifyFull); err == nil {
		p.Close()
		t.Fatal("trailing garbage opened cleanly")
	}

	// A wrong version with a recomputed footer CRC (a "valid" file from the
	// future) is refused, not misparsed.
	copy(mut, buf)
	f := mut[len(mut)-footerLen:]
	f[44] = 0x02
	crc := crc32.Checksum(f[:48], crcTable)
	f[48], f[49], f[50], f[51] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if p, err := OpenFile(path, VerifyFull); err == nil {
		p.Close()
		t.Fatal("future format version opened cleanly")
	}
}

// TestVerifyFooterCatchesStructural asserts the cheap mode still refuses
// truncations and footer damage (its job is structural integrity; only
// interior bit rot is deferred to VerifyFull).
func TestVerifyFooterCatchesStructural(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	recs := sortedCopy(testRecords(r, 30, 40))
	buf, err := Encode(recs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.tkp")
	for size := 0; size < len(buf); size++ {
		if err := os.WriteFile(path, buf[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		if p, err := OpenFile(path, VerifyFooter); err == nil {
			p.Close()
			t.Fatalf("VerifyFooter accepted truncation to %d of %d bytes", size, len(buf))
		}
	}
}

// openStore opens a partitioned store in dir and fails the test on error.
func openStore(t *testing.T, dir string) (*Store, *iupt.Table) {
	t.Helper()
	s, table, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s, table
}

// ingest appends a batch the way tkplq.System does: WAL first, then table.
func ingest(t *testing.T, s *Store, table *iupt.Table, recs []iupt.Record) {
	t.Helper()
	if err := s.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		table.Append(rec)
	}
}

func TestStoreSealRecoverEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	dir := t.TempDir()
	s, table := openStore(t, dir)

	var all []iupt.Record
	batches := [][]iupt.Record{
		testRecords(r, 300, 100),
		testRecords(r, 200, 100),
		testRecords(r, 150, 100),
	}
	// batch 0 → seal → batch 1 → seal → batch 2 stays in the WAL tail.
	for i, b := range batches {
		ingest(t, s, table, b)
		all = append(all, b...)
		if i < 2 {
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref := sortedCopy(all)
	sameRecords(t, "live", ref, table.SortedRecords())
	st := s.Stats()
	if st.Partitions != 2 || st.Seals != 2 {
		t.Fatalf("partitions=%d seals=%d, want 2/2", st.Partitions, st.Seals)
	}
	if st.WAL.SinceSnapshot != int64(len(batches[2])) {
		t.Fatalf("SinceSnapshot=%d, want %d", st.WAL.SinceSnapshot, len(batches[2]))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// kill -9 equivalent: reopen from disk only.
	s2, table2 := openStore(t, dir)
	defer s2.Close()
	st2 := s2.Stats()
	if st2.Partitions != 2 {
		t.Fatalf("recovered partitions=%d, want 2", st2.Partitions)
	}
	// Restart work ∝ WAL tail: only batch 2 was replayed, and opening the
	// sealed set decoded zero records.
	if st2.WAL.ReplayedRecords != int64(len(batches[2])) {
		t.Fatalf("ReplayedRecords=%d, want %d (the WAL tail)", st2.WAL.ReplayedRecords, len(batches[2]))
	}
	if st2.MaterializedRecords != 0 {
		t.Fatalf("recovery materialized %d sealed records, want 0", st2.MaterializedRecords)
	}
	if table2.HeadLen() != len(batches[2]) {
		t.Fatalf("recovered head holds %d records, want %d", table2.HeadLen(), len(batches[2]))
	}
	sameRecords(t, "recovered", ref, table2.SortedRecords())

	// A window inside partition 1's span must not touch partition 2 (their
	// time spans may overlap — both cover [0,100] here — so prune on spans;
	// use a window past every record instead to prove the negative).
	parts := s2.Partitions()
	before := make([]int64, len(parts))
	for i, p := range parts {
		before[i] = p.Materialized()
	}
	_ = table2.RecordsInRange(1000, 2000)
	for i, p := range parts {
		if p.Materialized() != before[i] {
			t.Fatalf("non-overlapping window materialized records from partition %d", i)
		}
	}
}

// TestStorePruning builds partitions with disjoint time spans and proves a
// window query decodes records only from the overlapping one.
func TestStorePruning(t *testing.T) {
	dir := t.TempDir()
	s, table := openStore(t, dir)
	mkBatch := func(lo, hi int) []iupt.Record {
		var recs []iupt.Record
		for ts := lo; ts <= hi; ts++ {
			recs = append(recs, iupt.Record{OID: iupt.ObjectID(ts % 3), T: iupt.Time(ts),
				Samples: iupt.SampleSet{{Loc: 1, Prob: 1}}})
		}
		return recs
	}
	for _, span := range [][2]int{{0, 99}, {100, 199}, {200, 299}} {
		ingest(t, s, table, mkBatch(span[0], span[1]))
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	parts := s.Partitions()
	if len(parts) != 3 {
		t.Fatalf("%d partitions, want 3", len(parts))
	}
	got := table.RecordsInRange(120, 150)
	if len(got) != 31 {
		t.Fatalf("window returned %d records, want 31", len(got))
	}
	if m := parts[0].Materialized(); m != 0 {
		t.Fatalf("partition 1 (span 0-99) materialized %d records for window [120,150]", m)
	}
	if m := parts[2].Materialized(); m != 0 {
		t.Fatalf("partition 3 (span 200-299) materialized %d records for window [120,150]", m)
	}
	if m := parts[1].Materialized(); m != 31 {
		t.Fatalf("partition 2 materialized %d records, want 31", m)
	}
	s.Close()
}

// TestStoreSealEmptyHead asserts sealing with nothing new is a no-op.
func TestStoreSealEmptyHead(t *testing.T) {
	dir := t.TempDir()
	s, table := openStore(t, dir)
	defer s.Close()
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Partitions != 0 || st.Seals != 0 {
		t.Fatalf("empty seal produced partitions=%d seals=%d", st.Partitions, st.Seals)
	}
	ingest(t, s, table, testRecords(rand.New(rand.NewSource(5)), 10, 10))
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil { // second seal: head empty again
		t.Fatal(err)
	}
	if st := s.Stats(); st.Partitions != 1 {
		t.Fatalf("partitions=%d, want 1", st.Partitions)
	}
}

// TestStoreSealPoisonsAfterCommitPointFailure injects a dir-fsync failure
// after the partition rename — the commit point — and asserts the store
// poisons itself: the partition is already visible to recovery, which drops
// the old segment as subsumed, so acknowledging further appends into it
// would lose them on restart. Restart must then recover every sealed record.
func TestStoreSealPoisonsAfterCommitPointFailure(t *testing.T) {
	dir := t.TempDir()
	s, table := openStore(t, dir)
	recs := testRecords(rand.New(rand.NewSource(11)), 40, 30)
	ingest(t, s, table, recs)

	commitDirSync = func(string) error { return fmt.Errorf("injected dir fsync failure") }
	err := s.Seal()
	commitDirSync = wal.SyncDir
	if err == nil || !strings.Contains(err.Error(), "injected dir fsync failure") {
		t.Fatalf("Seal error = %v, want injected dir fsync failure", err)
	}
	// The rename committed part-1 before the failure: the store must refuse
	// further appends — recovery would drop the old segment as subsumed.
	if err := s.AppendBatch(testRecords(rand.New(rand.NewSource(12)), 5, 30)); err == nil {
		t.Fatal("AppendBatch succeeded on a store poisoned after seal commit point")
	}
	s.Close()

	// Restart: the committed partition carries every acknowledged record.
	s2, table2 := openStore(t, dir)
	defer s2.Close()
	if st := s2.Stats(); st.Partitions != 1 {
		t.Fatalf("recovered partitions=%d, want 1", st.Partitions)
	}
	sameRecords(t, "recovered after poisoned seal", sortedCopy(recs), table2.SortedRecords())
}

// TestStoreDropsSubsumedSegment plants a stale log segment older than the
// newest partition — the leftover of a crash between seal commit and
// cleanup — and asserts recovery drops it instead of replaying duplicates.
func TestStoreDropsSubsumedSegment(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	dir := t.TempDir()
	s, table := openStore(t, dir)
	b1 := testRecords(r, 50, 20)
	ingest(t, s, table, b1)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	b2 := testRecords(r, 30, 20)
	ingest(t, s, table, b2)
	ref := table.SortedRecords()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The active segment is wal-00000001.log (seal seq 1). Plant a copy as
	// wal-00000000.log: a stale, fully valid segment recovery must ignore.
	cur, err := os.ReadFile(filepath.Join(dir, "wal-00000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "wal-00000000.log")
	if err := os.WriteFile(stale, cur, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, table2 := openStore(t, dir)
	defer s2.Close()
	sameRecords(t, "after stale segment", ref, table2.SortedRecords())
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale segment not removed: %v", err)
	}
}

// TestStoreCorruptPartitionIsLoudBootError corrupts a sealed partition on
// disk and asserts the store refuses to open.
func TestStoreCorruptPartitionIsLoudBootError(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	dir := t.TempDir()
	s, table := openStore(t, dir)
	ingest(t, s, table, testRecords(r, 60, 30))
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, "part-00000001.tkp")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s2, _, err := Open(Options{Dir: dir}); err == nil {
		s2.Close()
		t.Fatal("store opened over a corrupt partition")
	}
}
