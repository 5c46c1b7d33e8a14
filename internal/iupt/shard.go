package iupt

import (
	"context"
	"slices"
)

// This file provides the shard-aware iteration primitives the concurrent
// query engine builds on. Per-object work (data reduction, presence
// summarization) is embarrassingly parallel, so the engine partitions the
// objects of a query interval into shards and fans the shards across a
// bounded worker pool. The helpers here keep that partitioning deterministic:
// objects are always sorted ascending and shards are contiguous ranges, so a
// merge that walks shards in order visits objects in exactly the order the
// sequential algorithms do.

// SortedObjects returns the keys of a per-object sequence map in ascending
// object-id order — the canonical iteration order of Algorithms 2-4.
func SortedObjects(seqs map[ObjectID]Sequence) []ObjectID {
	out := make([]ObjectID, 0, len(seqs))
	for oid := range seqs {
		out = append(out, oid)
	}
	slices.Sort(out)
	return out
}

// ShardObjects partitions oids into at most n contiguous, nearly equal-sized
// shards, preserving order. Concatenating the shards yields oids again, so
// shard-ordered merges are equivalent to a single ordered pass. n < 1 is
// treated as 1; empty input yields no shards.
func ShardObjects(oids []ObjectID, n int) [][]ObjectID {
	if len(oids) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > len(oids) {
		n = len(oids)
	}
	shards := make([][]ObjectID, 0, n)
	quo, rem := len(oids)/n, len(oids)%n
	start := 0
	for i := 0; i < n; i++ {
		size := quo
		if i < rem {
			size++
		}
		shards = append(shards, oids[start:start+size])
		start += size
	}
	return shards
}

// SequencesInRangeSharded is the context-aware form of SequencesInRange. It
// builds the per-object sequences with one ordered pass over the canonical
// time-sorted snapshot, bounded by binary search (RecordsInRange): the
// subsequence of each object within a stably sorted record list is itself
// stably sorted, so no per-object sort pass is needed and every sequence
// comes out in exactly the canonical order — same-timestamp records in
// arrival order. That property is what lets the incremental Monitor splice
// window-delta records into retained sequences and land on sequences
// bit-identical to a fresh fetch. The workers parameter is retained for
// callers tuned against the earlier sharded-sort implementation; the single
// ordered pass needs no fan-out and the output is identical for every value.
// It is Window without the identity.
func (t *Table) SequencesInRangeSharded(ctx context.Context, ts, te Time, workers int) (map[ObjectID]Sequence, error) {
	_ = workers
	seqs, _, err := t.Window(ctx, ts, te, nil)
	return seqs, err
}
