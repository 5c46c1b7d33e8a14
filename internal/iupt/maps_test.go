package iupt

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"tkplq/internal/indoor"
)

func TestSortedObjects(t *testing.T) {
	seqs := map[ObjectID]Sequence{
		9: nil, 1: nil, 5: nil, 3: nil,
	}
	got := SortedObjects(seqs)
	want := []ObjectID{1, 3, 5, 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortedObjects = %v, want %v", got, want)
	}
	if out := SortedObjects(nil); len(out) != 0 {
		t.Errorf("SortedObjects(nil) = %v", out)
	}
}

func TestSequencesInRangeShardedMatchesSequential(t *testing.T) {
	tb := NewTable()
	set := func(loc int32) SampleSet { return SampleSet{{Loc: indoor.PLocID(loc), Prob: 1}} }
	for oid := ObjectID(1); oid <= 9; oid++ {
		for tm := Time(0); tm < 30; tm += Time(oid) {
			tb.Append(Record{OID: oid, T: 30 - tm, Samples: set(int32(tm % 5))})
		}
	}
	want := tb.SequencesInRange(5, 25)
	for _, workers := range []int{-1, 0, 1, 2, 4, 16} {
		got, err := tb.SequencesInRangeSharded(context.Background(), 5, 25, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: sequences differ from sequential", workers)
		}
	}
}

func TestSequencesInRangeShardedCanceled(t *testing.T) {
	tb := NewTable()
	for oid := ObjectID(1); oid <= 4; oid++ {
		for tm := Time(0); tm < 20; tm++ {
			tb.Append(Record{OID: oid, T: tm, Samples: SampleSet{{Loc: 0, Prob: 1}}})
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		got, err := tb.SequencesInRangeSharded(ctx, 0, 20, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got != nil {
			t.Fatalf("workers=%d: canceled call returned sequences", workers)
		}
	}
}
