package tkplq_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tkplq"
	"tkplq/internal/iupt"
)

// refValidate is SampleSet.Validate as it stood with a map per sample set:
// the reference the scan-or-sort duplicate check must agree with.
func refValidate(x tkplq.SampleSet) error {
	if len(x) == 0 {
		return fmt.Errorf("iupt: empty sample set")
	}
	sum := 0.0
	seen := make(map[tkplq.PLocID]bool, len(x))
	for _, s := range x {
		if !(s.Prob > 0 && s.Prob <= 1+iupt.ProbSumTolerance) {
			return fmt.Errorf("iupt: sample probability %v out of (0,1]", s.Prob)
		}
		if seen[s.Loc] {
			return fmt.Errorf("iupt: duplicate P-location %d in sample set", s.Loc)
		}
		seen[s.Loc] = true
		sum += s.Prob
	}
	if math.Abs(sum-1) > iupt.ProbSumTolerance {
		return fmt.Errorf("iupt: sample probabilities sum to %v, want 1", sum)
	}
	return nil
}

// refIngestCheck is Ingest's validation as it stood with a map per batch:
// the reference the sorted within-batch duplicate check must agree with.
func refIngestCheck(recs []tkplq.Record, numPLocs int) *tkplq.IngestError {
	type slot struct {
		oid tkplq.ObjectID
		t   tkplq.Time
	}
	seen := make(map[slot]int, len(recs))
	for i, rec := range recs {
		if rec.T < 0 {
			return &tkplq.IngestError{Index: i, OID: rec.OID, T: rec.T, Err: errors.New("negative timestamp")}
		}
		if j, dup := seen[slot{rec.OID, rec.T}]; dup {
			return &tkplq.IngestError{Index: i, OID: rec.OID, T: rec.T,
				Err: fmt.Errorf("duplicate timestamp for object (record %d of this batch reports the same instant)", j)}
		}
		seen[slot{rec.OID, rec.T}] = i
	}
	for i, rec := range recs {
		if err := refValidate(rec.Samples); err != nil {
			return &tkplq.IngestError{Index: i, OID: rec.OID, T: rec.T, Err: err}
		}
		for _, smp := range rec.Samples {
			if smp.Loc < 0 || int(smp.Loc) >= numPLocs {
				return &tkplq.IngestError{Index: i, OID: rec.OID, T: rec.T, Err: fmt.Errorf("unknown P-location %d", smp.Loc)}
			}
		}
	}
	return nil
}

// fuzzProbs are the probabilities a fuzzed sample draws from: valid ones,
// and the edge cases Validate refuses.
var fuzzProbs = [8]float64{1, 0.5, 0.25, 1.0 / 3, 0, -0.5, math.NaN(), 1.5}

// decodeIngestBatch turns fuzz bytes into a batch, four header bytes per
// record — object (0..3), timestamp (-2..17), sample count (0..23), and a
// flag that normalizes the set — then two bytes per sample: a P-location
// from one below the space's range to one above it, and a fuzzProbs index.
// With wide > 1 the batch ends in one more record of wide%2^18 samples at
// distinct P-locations, its last sample repeating P-location (wide>>18-1)
// when wide>>18 is non-zero.
func decodeIngestBatch(data []byte, wide uint32, numPLocs int) []tkplq.Record {
	var recs []tkplq.Record
	for len(data) >= 4 {
		h := data[:4]
		data = data[4:]
		rec := tkplq.Record{OID: tkplq.ObjectID(h[0] % 4), T: tkplq.Time(h[1]%20) - 2}
		for k := int(h[2] % 24); k > 0 && len(data) >= 2; k-- {
			rec.Samples = append(rec.Samples, tkplq.Sample{
				Loc:  tkplq.PLocID(int(data[0])%(numPLocs+2) - 1),
				Prob: fuzzProbs[data[1]%8],
			})
			data = data[2:]
		}
		if h[3]&1 == 1 {
			rec.Samples.Normalize()
		}
		recs = append(recs, rec)
	}
	if n := int(wide % (1 << 18)); n > 1 {
		set := make(tkplq.SampleSet, n)
		for i := range set {
			set[i] = tkplq.Sample{Loc: tkplq.PLocID(i), Prob: 1 / float64(n)}
		}
		if d := wide >> 18; d != 0 {
			set[n-1].Loc = tkplq.PLocID(int(d-1) % (n - 1))
		}
		recs = append(recs, tkplq.Record{OID: 99, T: 0, Samples: set})
	}
	return recs
}

// encodeRecord is decodeIngestBatch's inverse for one record: samples are
// (P-location, fuzzProbs index) pairs.
func encodeRecord(oid, t int, normalize bool, samples ...[2]int) []byte {
	out := []byte{byte(oid), byte(t + 2), byte(len(samples)), 0}
	if normalize {
		out[3] = 1
	}
	for _, s := range samples {
		out = append(out, byte(s[0]+1), byte(s[1]))
	}
	return out
}

// FuzzIngestBatch holds Ingest's batch checks — the sorted within-batch
// duplicate check and SampleSet.Validate's scan-or-sort — to the map-based
// loop they replaced: the same *IngestError (index, object, timestamp and
// message) for every batch, or both accept it.
func FuzzIngestBatch(f *testing.F) {
	fig := tkplq.PaperExampleSpace()
	numPLocs := fig.Space.NumPLocations()
	ok := func(oid, t int) []byte { return encodeRecord(oid, t, false, [2]int{0, 0}) }
	var sorted, shuffled [][]byte
	for t := 0; t < 6; t++ {
		for oid := 0; oid < 4; oid++ {
			sorted = append(sorted, ok(oid, t))
		}
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(sorted)) {
		shuffled = append(shuffled, sorted[i])
	}
	f.Add(slices.Concat(sorted...), uint32(0))
	f.Add(slices.Concat(shuffled...), uint32(0))
	f.Add(slices.Concat(append(shuffled, ok(2, 3))...), uint32(0))
	// A negative timestamp before, and after, a duplicate.
	f.Add(slices.Concat(ok(0, 1), ok(1, -1), ok(0, 1)), uint32(0))
	f.Add(slices.Concat(ok(0, 1), ok(0, 1), ok(1, -1)), uint32(0))
	f.Add(slices.Concat(ok(0, -1), ok(0, -1)), uint32(0))
	// Triple duplicates, and duplicates on the first and last record.
	f.Add(slices.Concat(ok(1, 4), ok(0, 2), ok(1, 4), ok(1, 4)), uint32(0))
	f.Add(slices.Concat(ok(3, 9), ok(0, 2), ok(1, 2), ok(2, 5), ok(3, 9)), uint32(0))
	f.Add(slices.Concat(ok(0, 5), ok(1, 5), ok(0, 6), ok(1, 5), ok(0, 5)), uint32(0))
	// A duplicate P-location next to a bad probability, either way round.
	f.Add(slices.Concat(ok(0, 1), encodeRecord(1, 1, false, [2]int{2, 1}, [2]int{2, 1}, [2]int{3, 4})), uint32(0))
	f.Add(slices.Concat(encodeRecord(1, 1, false, [2]int{2, 4}, [2]int{2, 1}), ok(0, 1)), uint32(0))
	f.Add(slices.Concat(encodeRecord(2, 3, true, [2]int{1, 1}, [2]int{4, 2}, [2]int{1, 6})), uint32(0))
	f.Add(slices.Concat(encodeRecord(2, 3, false, [2]int{1, 1}, [2]int{1, 4})), uint32(0))
	// Sets past the scanned size, where Validate sorts: a repeat before a
	// bad probability, and after one.
	var long, late [][2]int
	for i := 0; i < 20; i++ {
		long = append(long, [2]int{i % 9, 1})
		late = append(late, [2]int{i % 9, 1})
	}
	long[12][1], late[5][1] = 5, 5
	f.Add(slices.Concat(ok(0, 1), encodeRecord(1, 1, true, long...)), uint32(0))
	f.Add(slices.Concat(encodeRecord(1, 1, true, late...)), uint32(0))
	// Out-of-range P-locations, empty and unnormalized sets.
	f.Add(slices.Concat(ok(0, 1), encodeRecord(1, 1, false, [2]int{-1, 0}), encodeRecord(2, 1, false)), uint32(0))
	f.Add(slices.Concat(encodeRecord(0, 1, false, [2]int{numPLocs, 0}), encodeRecord(1, 1, false, [2]int{0, 1})), uint32(0))
	// One 200 000-sample set whose last sample repeats an earlier one, and
	// the same set with no repeat: a quadratic duplicate check would take
	// seconds per set.
	f.Add(slices.Concat(ok(0, 1)), uint32(200_000)|1<<18)
	f.Add(slices.Concat(ok(0, 1)), uint32(200_000)|12_345<<18)
	f.Add([]byte{}, uint32(200_000))
	f.Fuzz(func(t *testing.T, data []byte, wide uint32) {
		recs := decodeIngestBatch(data, wide, numPLocs)
		for i, rec := range recs {
			got, want := rec.Samples.Validate(), refValidate(rec.Samples)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("record %d: Validate = %v, reference %v", i, got, want)
			}
		}
		sys, err := tkplq.NewSystem(fig.Space, tkplq.NewTable(), tkplq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		err = sys.Ingest(recs)
		want := refIngestCheck(recs, numPLocs)
		if want == nil {
			if err != nil {
				t.Fatalf("Ingest refused a batch the reference accepts: %v", err)
			}
			if got := sys.Table().Len(); got != len(recs) {
				t.Fatalf("table holds %d records after a %d-record ingest", got, len(recs))
			}
			return
		}
		var got *tkplq.IngestError
		if !errors.As(err, &got) {
			t.Fatalf("Ingest = %v, reference %v", err, want)
		}
		if got.Index != want.Index || got.OID != want.OID || got.T != want.T || got.Err.Error() != want.Err.Error() {
			t.Fatalf("Ingest = %v, reference %v", got, want)
		}
		if n := sys.Table().Len(); n != 0 {
			t.Fatalf("a refused batch left %d records in the table", n)
		}
	})
}

// ingestBatch returns n valid records in time order: 200 objects report in
// turn, each with one to four samples over the space's P-locations.
func ingestBatch(n, numPLocs int, seed int64) []tkplq.Record {
	rng := rand.New(rand.NewSource(seed))
	const objects = 200
	recs := make([]tkplq.Record, n)
	for i := range recs {
		set := make(tkplq.SampleSet, 1+rng.Intn(min(4, numPLocs)))
		for j, loc := range rng.Perm(numPLocs)[:len(set)] {
			set[j] = tkplq.Sample{Loc: tkplq.PLocID(loc), Prob: 0.1 + rng.Float64()}
		}
		set.Normalize()
		recs[i] = tkplq.Record{OID: tkplq.ObjectID(i % objects), T: tkplq.Time(i / objects), Samples: set}
	}
	return recs
}

// TestIngestAllocsPerBatch: an in-memory Ingest allocates the same number of
// times for a 1 000- and a 10 000-record batch — its checks and its table
// append cost a fixed number of allocations per batch, none per record.
func TestIngestAllocsPerBatch(t *testing.T) {
	fig := tkplq.PaperExampleSpace()
	numPLocs := fig.Space.NumPLocations()
	allocs := func(n int) float64 {
		recs := ingestBatch(n, numPLocs, int64(n))
		// AllocsPerRun calls the function once to warm up, then once more
		// measured: each call ingests into a fresh system.
		var systems [2]*tkplq.System
		for i := range systems {
			sys, err := tkplq.NewSystem(fig.Space, tkplq.NewTable(), tkplq.Options{})
			if err != nil {
				t.Fatal(err)
			}
			systems[i] = sys
		}
		next := 0
		return testing.AllocsPerRun(1, func() {
			if err := systems[next].Ingest(recs); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	small, large := allocs(1_000), allocs(10_000)
	t.Logf("Ingest allocates %v times for 1 000 records, %v for 10 000", small, large)
	if small != large {
		t.Errorf("Ingest allocates %v times for 1 000 records and %v times for 10 000: allocations that grow with the batch", small, large)
	}
}

// BenchmarkIngest times one 100 000-record batch through System.Ingest:
// "mem" into an in-memory table, "durable" through a partitioned store's
// write-ahead log at the default fsync policy. Each iteration ingests into a
// fresh system.
func BenchmarkIngest(b *testing.B) {
	const n = 100_000
	fig := tkplq.PaperExampleSpace()
	recs := ingestBatch(n, fig.Space.NumPLocations(), 1)
	for _, durable := range []bool{false, true} {
		name := "mem"
		if durable {
			name = "durable"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				table := tkplq.NewTable()
				var store *tkplq.PartitionedStore
				if durable {
					var err error
					store, table, err = tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: b.TempDir()})
					if err != nil {
						b.Fatal(err)
					}
				}
				sys, err := tkplq.NewSystem(fig.Space, table, tkplq.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if store != nil {
					sys.SetPersister(store)
				}
				b.StartTimer()
				if err := sys.Ingest(recs); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if store != nil {
					if err := store.Close(); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}
