package iupt

import (
	"context"
	"slices"
)

// The map-shaped reads. Table.Window is the one grouping, and the engine works
// on its columns by position; these re-key them by object id for the callers
// that want a map. The serving benchmark's stage probes (bench/e2e/trace.go)
// call SequencesInRangeSharded and SortedObjects, so both keep their
// signatures until that harness reads Window itself.

// Map returns the window's sequences keyed by object id: an empty, non-nil map
// for an empty window.
func (w Window) Map() map[ObjectID]Sequence {
	out := make(map[ObjectID]Sequence, len(w.OIDs))
	for i, oid := range w.OIDs {
		out[oid] = w.Seqs[i]
	}
	return out
}

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

// SequencesInRange returns the per-object positioning sequences of [ts, te]
// keyed by object id: Window's columns as a map.
func (t *Table) SequencesInRange(ts, te Time) map[ObjectID]Sequence {
	out, _ := t.SequencesInRangeSharded(context.Background(), ts, te, 1)
	return out
}

// SequencesInRangeSharded is the context-aware SequencesInRange: a canceled
// ctx returns ctx.Err() and no sequences. Every sequence is in canonical order
// — same-timestamp records in arrival order. workers is ignored: the
// grouping is one ordered pass, and the parameter stays only because
// bench/e2e/trace.go passes it.
func (t *Table) SequencesInRangeSharded(ctx context.Context, ts, te Time, workers int) (map[ObjectID]Sequence, error) {
	w, err := t.Window(ctx, ts, te)
	if err != nil {
		return nil, err
	}
	return w.Map(), nil
}
