// Package iupt implements the Indoor Uncertain Positioning Table of paper
// §2.2: non-periodic records (oid, X, t) where X is a set of probabilistic
// samples (loc, prob) over P-locations with probabilities summing to one.
// The table is indexed on its time attribute — a lazily time-sorted snapshot
// searched by bisection stands in for the paper's 1-D R-tree (§3.3) — and
// yields per-object positioning sequences for a query interval.
//
// A Table is safe for concurrent use: appends and queries interleave
// freely, the lazy time sort is copy-on-write, and
// SortedRecords hands out immutable snapshots — the properties the engine's
// queries and a live monitor's build read, both concurrent with ingest,
// build on.
//
// io.go serializes tables in two formats, specified byte by byte in
// docs/FORMATS.md: a human-editable CSV (WriteCSV/ReadCSV) and a compact
// little-endian binary layout (WriteRecordsBinary, BinaryWriter and
// ReadBinary; cmd/gendata's -format bin output) that stores probabilities
// as raw IEEE-754 bits for exact round-trips. Its one record encoder and
// its decoder of a run of records, AppendRecord and DecodeRecords, also
// frame the WAL's batch payloads (internal/wal), so a record has the same
// bytes in both. The readers return records, not tables.
package iupt

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"tkplq/internal/indoor"
)

// ObjectID identifies an indoor moving object.
type ObjectID int32

// Time is a timestamp in seconds since the dataset epoch. The paper's
// positioning periods are whole seconds; finer resolutions can scale the
// unit without code changes.
type Time int64

// Sample is one probabilistic positioning sample: the object is at P-location
// Loc with probability Prob.
type Sample struct {
	Loc  indoor.PLocID
	Prob float64
}

// SampleSet is the sample set X of one positioning record. Invariant
// (checked by Validate): probabilities are positive and sum to 1 within
// tolerance, and P-locations are unique.
type SampleSet []Sample

// ProbSumTolerance is the allowed deviation of a sample set's probability
// mass from 1.
const ProbSumTolerance = 1e-6

// smallSampleSet is the largest sample set whose P-locations Validate checks
// for repeats by scanning the earlier samples; a larger set sorts a copy, so
// a hostile set costs O(n log n), never O(n²).
const smallSampleSet = 16

// Validate checks the SampleSet invariants. It reports the first offending
// sample in set order; a valid set of up to smallSampleSet samples validates
// without allocating.
func (x SampleSet) Validate() error {
	if len(x) == 0 {
		return fmt.Errorf("iupt: empty sample set")
	}
	dup := -1 // the first sample whose P-location an earlier sample holds
	if len(x) > smallSampleSet {
		dup = firstRepeatedLoc(x)
	}
	sum := 0.0
	for i, s := range x {
		if !(s.Prob > 0 && s.Prob <= 1+ProbSumTolerance) { // NaN fails too
			return fmt.Errorf("iupt: sample probability %v out of (0,1]", s.Prob)
		}
		if i == dup || len(x) <= smallSampleSet && holdsLoc(x[:i], s.Loc) {
			return fmt.Errorf("iupt: duplicate P-location %d in sample set", s.Loc)
		}
		sum += s.Prob
	}
	if math.Abs(sum-1) > ProbSumTolerance {
		return fmt.Errorf("iupt: sample probabilities sum to %v, want 1", sum)
	}
	return nil
}

// holdsLoc reports whether a sample of x is at loc.
func holdsLoc(x SampleSet, loc indoor.PLocID) bool {
	for i := range x {
		if x[i].Loc == loc {
			return true
		}
	}
	return false
}

// firstRepeatedLoc returns the index of the first sample of x whose
// P-location an earlier sample holds, or -1. It sorts (P-location, index)
// keys (a set holds < 2³² samples), so each P-location's samples are
// neighbours in index order and the second of a run is that P-location's
// first repeat.
func firstRepeatedLoc(x SampleSet) int {
	keys := make([]uint64, len(x))
	for i, s := range x {
		keys[i] = uint64(uint32(s.Loc))<<32 | uint64(i)
	}
	slices.Sort(keys)
	first := -1
	for i := 1; i < len(keys); i++ {
		if keys[i]>>32 == keys[i-1]>>32 {
			if j := int(uint32(keys[i])); first < 0 || j < first {
				first = j
			}
		}
	}
	return first
}

// Clone returns a deep copy.
func (x SampleSet) Clone() SampleSet {
	return append(SampleSet(nil), x...)
}

// Normalize rescales probabilities to sum to exactly 1. It is a no-op on an
// empty set.
func (x SampleSet) Normalize() {
	sum := 0.0
	for _, s := range x {
		sum += s.Prob
	}
	if sum <= 0 {
		return
	}
	for i := range x {
		x[i].Prob /= sum
	}
}

// Sorted returns a copy ordered by ascending P-location id, the canonical
// order used when comparing πl(X) sets during inter-merge.
func (x SampleSet) Sorted() SampleSet {
	out := x.Clone()
	slices.SortFunc(out, func(a, b Sample) int { return cmp.Compare(a.Loc, b.Loc) })
	return out
}

// MaxProbSample returns the sample with the highest probability (first on
// ties), the sample the SC baseline counts.
func (x SampleSet) MaxProbSample() Sample {
	best := x[0]
	for _, s := range x[1:] {
		if s.Prob > best.Prob {
			best = s
		}
	}
	return best
}

// Record is one positioning record (oid, X, t).
type Record struct {
	OID     ObjectID
	T       Time
	Samples SampleSet
}

// TimedSampleSet is one element of a positioning sequence: the sample set
// reported at time T.
type TimedSampleSet struct {
	T       Time
	Samples SampleSet
}

// Sequence is an object's time-ordered positioning sequence
// X = (X1, ..., Xn) within a query interval.
type Sequence []TimedSampleSet

// Window is the per-object positioning sequences of one query window — the
// HO of paper Algorithms 2-4 — as two aligned columns: OIDs strictly
// ascending, and Seqs[i] the non-empty, time-ordered sequence of OIDs[i].
// Position i is the i-th smallest object id, so walking positions ascending
// is the canonical object order every float accumulation follows, and a
// per-object table over a window is a slice indexed by position.
// GroupSequences builds one from a window's records; internal/core assembles
// the engine's windows over its slabs in the same layout.
type Window struct {
	OIDs []ObjectID
	Seqs []Sequence
}

// Table is the IUPT: an append-only collection of positioning records with
// a time index. A Table is safe for concurrent use: appends and queries may
// interleave freely. The lazy sort happens under the table's lock and
// replaces — never mutates — the record slice, so queries
// always iterate a consistent snapshot even while records stream in.
//
// A table optionally carries sealed partitions (sealed.go): immutable,
// time-bounded record batches — typically memory-mapped by internal/parts —
// that reads merge with the in-heap head in canonical order. A table with no
// sealed parts ("flat") behaves exactly as before; every read method below
// fast-paths to the head-only code in that case.
type Table struct {
	mu      sync.RWMutex
	records []Record // the mutable head; all of the table when sealed is empty
	sealed  []SealedPart
	sorted  bool
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{sorted: true} }

// Append adds records. Records may arrive in any time order; the head is
// re-sorted lazily on first query. A call takes the lock once and grows the
// head once, so a concurrent read sees all of its records or none of them.
func (t *Table) Append(recs ...Record) {
	if len(recs) == 0 {
		return
	}
	inOrder := slices.IsSortedFunc(recs, func(a, b Record) int { return cmp.Compare(a.T, b.T) })
	t.mu.Lock()
	if n := len(t.records); !inOrder || n > 0 && recs[0].T < t.records[n-1].T {
		t.sorted = false
	}
	t.records = append(t.records, recs...)
	t.mu.Unlock()
}

// Len returns the number of records, sealed parts included.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := len(t.records)
	for _, p := range t.sealed {
		n += p.Len()
	}
	return n
}

// TimeSpan returns the earliest and latest record timestamps. ok is false
// for an empty table.
func (t *Table) TimeSpan() (lo, hi Time, ok bool) {
	return span(t.view())
}

// span returns the earliest and latest timestamps of a sorted head and the
// sealed parts; ok is false when both are empty.
func span(head []Record, sealed []SealedPart) (lo, hi Time, ok bool) {
	if len(head) > 0 {
		lo, hi, ok = head[0].T, head[len(head)-1].T, true
	}
	for _, p := range sealed {
		plo, phi := p.Span()
		if !ok || plo < lo {
			lo = plo
		}
		if !ok || phi > hi {
			hi = phi
		}
		ok = true
	}
	return lo, hi, ok
}

// Objects returns the distinct object ids, ascending.
func (t *Table) Objects() []ObjectID {
	recs, sealed := t.retainView()
	defer releaseParts(sealed)
	seen := make(map[ObjectID]bool)
	var out []ObjectID
	for i := range recs {
		if !seen[recs[i].OID] {
			seen[recs[i].OID] = true
			out = append(out, recs[i].OID)
		}
	}
	for _, p := range sealed {
		for _, oid := range p.Objects() {
			if !seen[oid] {
				seen[oid] = true
				out = append(out, oid)
			}
		}
	}
	slices.Sort(out)
	return out
}

// ensureSortedLocked re-sorts into a fresh slice (copy-on-sort), so record
// snapshots handed to in-flight queries are never reordered underneath them.
// Callers must hold the write lock.
func (t *Table) ensureSortedLocked() {
	if t.sorted {
		return
	}
	recs := make([]Record, len(t.records))
	copy(recs, t.records)
	slices.SortStableFunc(recs, func(a, b Record) int { return cmp.Compare(a.T, b.T) })
	t.records = recs
	t.sorted = true
}

// sortedRecords returns a time-ordered snapshot of the head records. Later
// appends and re-sorts never mutate the returned slice's backing array.
func (t *Table) sortedRecords() []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureSortedLocked()
	return t.records
}

// allRecords returns every record — sealed parts merged with the head — in
// canonical order. For a flat table it is the head snapshot (no copy); for a
// backed table it materializes the full merge, so full-table consumers
// (WriteCSV, ComputeStats) pay O(table) while windowed reads stay pruned.
func (t *Table) allRecords() []Record {
	head, sealed := t.retainView()
	defer releaseParts(sealed)
	lo, hi, _ := span(head, sealed)
	return readRange(head, sealed, lo, hi)
}

// SortedRecords returns a time-ordered snapshot of the records: the
// canonical order queries evaluate against (stable, so same-timestamp
// records keep their arrival order). The returned slice is shared with the
// table and must not be modified; later appends and re-sorts never mutate
// its backing array, so it remains a consistent snapshot while ingest goes
// on. On a table with sealed parts this
// materializes the full merge; prefer windowed reads (RecordsInRange) or
// HeadRecords there.
func (t *Table) SortedRecords() []Record {
	return t.allRecords()
}

// RecordsInRange returns the records with ts <= T <= te as a subslice of the
// canonical time-sorted snapshot (see SortedRecords): records appear in
// stable time order, same-timestamp records in arrival order. The bounds are
// found by binary search, so the call is O(log n) plus the cost of the lazy
// sort when records arrived out of order since the last read. The returned
// slice is immutable — later appends and re-sorts never mutate its backing
// array. An empty interval (te < ts) yields an empty slice.
//
// On a table with sealed parts the plan covers only the parts whose time
// span overlaps [ts, te] — non-overlapping partitions are never touched —
// with each part's contribution found by binary search and the sources
// merged in canonical order (readRange).
func (t *Table) RecordsInRange(ts, te Time) []Record {
	head, sealed := t.retainView()
	defer releaseParts(sealed)
	return readRange(head, sealed, ts, te)
}

// Stats summarizes a table for reporting.
type Stats struct {
	Records       int
	Objects       int
	TimeSpan      Time
	AvgSampleSize float64
	MaxSampleSize int
	DistinctPLocs int
	RecordsPerObj float64
}

// ComputeStats scans the table once and returns summary statistics.
func (t *Table) ComputeStats() Stats {
	recs := t.allRecords()
	st := Stats{Records: len(recs)}
	if len(recs) == 0 {
		return st
	}
	objects := make(map[ObjectID]bool)
	plocs := make(map[indoor.PLocID]bool)
	totalSamples := 0
	for i := range recs {
		rec := &recs[i]
		objects[rec.OID] = true
		totalSamples += len(rec.Samples)
		if len(rec.Samples) > st.MaxSampleSize {
			st.MaxSampleSize = len(rec.Samples)
		}
		for _, s := range rec.Samples {
			plocs[s.Loc] = true
		}
	}
	st.TimeSpan = recs[len(recs)-1].T - recs[0].T
	st.Objects = len(objects)
	st.AvgSampleSize = float64(totalSamples) / float64(len(recs))
	st.DistinctPLocs = len(plocs)
	st.RecordsPerObj = float64(len(recs)) / float64(len(objects))
	return st
}
