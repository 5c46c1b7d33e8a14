package wal

import (
	"testing"
	"time"

	"tkplq/internal/iupt"
)

// benchAppend measures durable batch appends under one fsync policy. These
// numbers are the basis of docs/OPERATIONS.md's fsync tuning guidance and
// land in CI's BENCH_<sha>.json artifact via cmd/benchjson.
func benchAppend(b *testing.B, policy SyncPolicy) {
	b.ReportAllocs()
	s, _, err := Open(Options{Dir: b.TempDir(), Policy: policy, SyncEvery: 10 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	recs := batchB(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AppendBatch(recs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(32*b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkWALAppendFsyncAlways(b *testing.B)   { benchAppend(b, SyncAlways) }
func BenchmarkWALAppendFsyncInterval(b *testing.B) { benchAppend(b, SyncInterval) }

// batchB builds a representative n-record batch (two samples per record,
// matching the synthetic dataset's average sample-set size).
func batchB(n int) []iupt.Record {
	recs := batch(1, 0, n)
	return recs
}
