package iupt

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tkplq/internal/indoor"
)

// TestTableAppendBatch: a batch lands whole — a reader racing it sees all of
// its records or none — and in the order one-at-a-time appends would give,
// whatever the batch's own time order, where it starts against the head, and
// whether a seal just emptied the head.
func TestTableAppendBatch(t *testing.T) {
	t.Run("atomic", func(t *testing.T) {
		const batch, batches = 37, 200
		r := rand.New(rand.NewSource(1))
		recs := randomRecords(r, batch*batches, 50)
		tab := NewTable()
		var done atomic.Bool
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !done.Load() {
					if n := len(tab.SortedRecords()); n%batch != 0 {
						errs <- fmt.Errorf("SortedRecords saw %d records, not a whole number of %d-record batches", n, batch)
						return
					}
					if n := tab.Len(); n%batch != 0 {
						errs <- fmt.Errorf("Len saw %d records, not a whole number of %d-record batches", n, batch)
						return
					}
				}
			}()
		}
		for i := 0; i < batches; i++ {
			tab.Append(recs[i*batch : (i+1)*batch]...)
		}
		done.Store(true)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		one := NewTable()
		for _, rec := range recs {
			one.Append(rec)
		}
		if err := recordsEqual(tab.SortedRecords(), one.SortedRecords()); err != nil {
			t.Errorf("after the race: %v", err)
		}
	})

	rec := func(oid ObjectID, ts Time) Record {
		return Record{OID: oid, T: ts, Samples: SampleSet{{Loc: indoor.PLocID(oid), Prob: 1}}}
	}
	inOrder := []Record{rec(1, 10), rec(2, 10), rec(1, 20), rec(3, 30)}
	for _, c := range []struct {
		name    string
		head    []Record // appended one at a time to both tables first
		seal    bool     // seal the head before the batch
		batches [][]Record
	}{
		{"backwards", inOrder, false, [][]Record{{rec(4, 50), rec(5, 40), rec(6, 40), rec(7, 35)}}},
		{"starts before the head's last", inOrder, false, [][]Record{{rec(4, 20), rec(5, 30), rec(6, 31)}}},
		{"ties the head's last", inOrder, false, [][]Record{{rec(4, 30), rec(5, 30), rec(6, 31)}}},
		{"in order after the head", inOrder, false, [][]Record{{rec(4, 31), rec(5, 31), rec(6, 40)}}},
		{"empty", inOrder, false, [][]Record{{}, nil, {rec(4, 5)}, {}}},
		{"empty table", nil, false, [][]Record{{rec(4, 9), rec(5, 3)}, {rec(6, 3)}}},
		{"right after a seal", inOrder, true, [][]Record{{rec(4, 5), rec(5, 60), rec(6, 10)}, {rec(7, 1)}}},
		{"in order right after a seal", inOrder, true, [][]Record{{rec(4, 5), rec(5, 5), rec(6, 60)}, {rec(7, 60)}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			batched, one := NewTable(), NewTable()
			for _, tab := range []*Table{batched, one} {
				for _, r := range c.head {
					tab.Append(r)
				}
				if c.seal {
					head := tab.HeadRecords()
					if err := tab.CommitSeal(newMemPart(head), len(head)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, b := range c.batches {
				batched.Append(b...)
				for _, r := range b {
					one.Append(r)
				}
				if err := recordsEqual(batched.SortedRecords(), one.SortedRecords()); err != nil {
					t.Fatalf("SortedRecords: %v", err)
				}
				if err := recordsEqual(batched.HeadRecords(), one.HeadRecords()); err != nil {
					t.Fatalf("HeadRecords: %v", err)
				}
			}
		})
	}
}

// validSet returns a valid set of n samples at distinct P-locations.
func validSet(n int) SampleSet {
	x := make(SampleSet, n)
	for i := range x {
		x[i] = Sample{Loc: indoor.PLocID(3 * i), Prob: 1 / float64(n)}
	}
	return x
}

// TestSampleSetValidateAllocs: a valid set of up to smallSampleSet samples
// validates without allocating.
func TestSampleSetValidateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	for n := 1; n <= smallSampleSet; n++ {
		x := validSet(n)
		if allocs := testing.AllocsPerRun(100, func() {
			if err := x.Validate(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("Validate of %d samples allocates %v times, want 0", n, allocs)
		}
	}
}

// BenchmarkSampleSetValidate validates one valid set: up to smallSampleSet
// samples by scanning, beyond it by sorting a copy.
func BenchmarkSampleSetValidate(b *testing.B) {
	for _, n := range []int{4, 16, 64, 4096} {
		x := validSet(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := x.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
