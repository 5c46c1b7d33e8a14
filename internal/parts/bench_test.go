package parts

import (
	"math/rand"
	"os"
	"testing"

	"tkplq/internal/iupt"
	"tkplq/internal/wal"
)

// benchRecords builds n time-ordered records with two samples each,
// matching the synthetic dataset's average sample-set size.
func benchRecords(n int, t0 int) []iupt.Record {
	r := rand.New(rand.NewSource(42))
	recs := make([]iupt.Record, n)
	for i := range recs {
		recs[i] = iupt.Record{
			OID: iupt.ObjectID(r.Intn(64)),
			T:   iupt.Time(t0 + i/4),
			Samples: iupt.SampleSet{
				{Loc: 1, Prob: 0.625}, {Loc: 2, Prob: 0.375},
			},
		}
	}
	return recs
}

// seedPartitionedDir builds a data directory holding sealed records across
// numParts partitions plus a tail-record WAL head.
func seedPartitionedDir(b *testing.B, dir string, numParts, perPart, tail int) {
	b.Helper()
	s, table, err := Open(Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < numParts; p++ {
		recs := benchRecords(perPart, p*perPart)
		if err := s.AppendBatch(recs); err != nil {
			b.Fatal(err)
		}
		for _, rec := range recs {
			table.Append(rec)
		}
		if err := s.Seal(); err != nil {
			b.Fatal(err)
		}
	}
	if tail > 0 {
		recs := benchRecords(tail, numParts*perPart)
		if err := s.AppendBatch(recs); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPartitionedRecovery opens a directory holding 32000 sealed
// records (10 partitions) plus a 32-record WAL tail: the restart number.
// Open maps the partitions without decoding a record and replays only the
// tail (replaying all 32000 from a log measured ~7.7 ms), which the
// benchmark asserts on every iteration.
func BenchmarkPartitionedRecovery(b *testing.B) {
	b.ReportAllocs()
	dir := b.TempDir()
	seedPartitionedDir(b, dir, 10, 3200, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, table, err := Open(Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if table.Len() != 32032 {
			b.Fatalf("recovered %d records", table.Len())
		}
		if st := s.Stats(); st.MaterializedRecords != 0 || st.WAL.ReplayedRecords != 32 {
			b.Fatalf("recovery did table-sized work: %+v", st)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionedRecoveryVerifyFooter is the same open with O(1)
// footer-only verification — the floor of partitioned restart latency.
func BenchmarkPartitionedRecoveryVerifyFooter(b *testing.B) {
	b.ReportAllocs()
	dir := b.TempDir()
	seedPartitionedDir(b, dir, 10, 3200, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, table, err := Open(Options{Dir: dir, Verify: VerifyFooter})
		if err != nil {
			b.Fatal(err)
		}
		if table.Len() != 32032 {
			b.Fatalf("recovered %d records", table.Len())
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeal measures one seal of a 3200-record head: encode + fsync +
// rename + WAL rotation — the O(head) compaction that replaces the flat
// store's O(table) snapshot.
func BenchmarkSeal(b *testing.B) {
	b.ReportAllocs()
	dir := b.TempDir()
	s, table, err := Open(Options{Dir: dir, Policy: wal.SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		recs := benchRecords(3200, i*800)
		if err := s.AppendBatch(recs); err != nil {
			b.Fatal(err)
		}
		for _, rec := range recs {
			table.Append(rec)
		}
		b.StartTimer()
		if err := s.Seal(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(3200*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkCompact measures one full compaction cycle: planning, an 8-way
// streaming merge of 3200-record partitions, commit (tmp + fsync + rename +
// dir fsync), live-set swap, and input deletion.
func BenchmarkCompact(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		seedPartitionedDir(b, dir, 8, 3200, 0)
		s, _, err := Open(Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := s.Compact()
		if err != nil {
			b.Fatal(err)
		}
		if res.Inputs != 8 || res.Records != 8*3200 {
			b.Fatalf("compacted %d inputs / %d records", res.Inputs, res.Records)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(8*3200*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkPartitionAppendRange measures the sealed read path: decoding a
// 1000-record window out of an mmap'd 32000-record partition.
func BenchmarkPartitionAppendRange(b *testing.B) {
	b.ReportAllocs()
	dir := b.TempDir()
	recs := benchRecords(32000, 0)
	buf, err := Encode(recs)
	if err != nil {
		b.Fatal(err)
	}
	path := dir + "/part-00000001.tkp"
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		b.Fatal(err)
	}
	p, err := OpenFile(path, VerifyFull)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	// 1000 records at 4 records/timestamp → a 250-timestamp window.
	ts, te := iupt.Time(1000), iupt.Time(1249)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, hi := p.Locate(ts, te)
		out := p.AppendRecords(nil, nil, lo, hi)
		if len(out) != 1000 {
			b.Fatalf("window held %d records", len(out))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(1000*b.N)/b.Elapsed().Seconds(), "records/s")
}
