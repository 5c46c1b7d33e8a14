package iupt

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"tkplq/internal/indoor"
)

// memPart is an in-memory SealedPart for testing the backed-table merge
// machinery independently of the on-disk format in internal/parts.
type memPart struct {
	recs []Record // canonical (T, arrival) order
	oids []ObjectID
	id   uint64
	// touched counts AppendRecords calls, for pruning assertions.
	touched int
	// refs tracks Retain/Release balance (owner ref included), for the
	// retained-view assertions.
	refs int64
}

// memPartID hands each memPart a distinct identity.
var memPartID uint64

func newMemPart(recs []Record) *memPart {
	if len(recs) == 0 {
		panic("memPart: empty")
	}
	seen := make(map[ObjectID]bool)
	var oids []ObjectID
	for _, r := range recs {
		if !seen[r.OID] {
			seen[r.OID] = true
			oids = append(oids, r.OID)
		}
	}
	slices.Sort(oids)
	return &memPart{recs: recs, oids: oids, id: atomic.AddUint64(&memPartID, 1), refs: 1}
}

func (p *memPart) Len() int { return len(p.recs) }

func (p *memPart) Span() (lo, hi Time) { return p.recs[0].T, p.recs[len(p.recs)-1].T }

func (p *memPart) Locate(ts, te Time) (lo, hi int) {
	return searchTime(p.recs, ts, false), searchTime(p.recs, te, true)
}

func (p *memPart) AppendRecords(dst []Record, _ *SampleSet, lo, hi int) []Record {
	p.touched++
	if hi <= lo {
		return dst
	}
	return append(dst, p.recs[lo:hi]...)
}

func (p *memPart) Objects() []ObjectID { return p.oids }

func (p *memPart) Identity() uint64 { return p.id }

func (p *memPart) Retain() { atomic.AddInt64(&p.refs, 1) }

func (p *memPart) Release() {
	if atomic.AddInt64(&p.refs, -1) < 0 {
		panic("memPart: release without retain")
	}
}

func testSamples(r *rand.Rand) SampleSet {
	n := 1 + r.Intn(3)
	s := make(SampleSet, n)
	rem := 1.0
	for i := 0; i < n-1; i++ {
		p := rem * (0.2 + 0.6*r.Float64())
		s[i] = Sample{Loc: indoor.PLocID(i), Prob: p}
		rem -= p
	}
	s[n-1] = Sample{Loc: indoor.PLocID(n - 1 + 10), Prob: rem}
	return s
}

// randomRecords generates records in append order with many timestamp
// collisions (small time domain) so tie-break order is actually exercised.
func randomRecords(r *rand.Rand, n int, tMax Time) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			OID:     ObjectID(r.Intn(8)),
			T:       Time(r.Intn(int(tMax + 1))),
			Samples: testSamples(r),
		}
	}
	return recs
}

// buildPair appends the same records to a flat table and to a backed table
// whose seal points are at the given prefix lengths, and returns both.
func buildPair(t *testing.T, recs []Record, sealAt []int) (flat, backed *Table) {
	t.Helper()
	flat = NewTable()
	for _, r := range recs {
		flat.Append(r)
	}
	backed = NewTable()
	prev := 0
	for _, cut := range sealAt {
		for _, r := range recs[prev:cut] {
			backed.Append(r)
		}
		head := backed.HeadRecords()
		if len(head) == 0 {
			prev = cut
			continue
		}
		part := newMemPart(head)
		if err := backed.CommitSeal(part, len(head)); err != nil {
			t.Fatalf("CommitSeal: %v", err)
		}
		prev = cut
	}
	for _, r := range recs[prev:] {
		backed.Append(r)
	}
	return flat, backed
}

func recordsEqual(a, b []Record) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].OID != b[i].OID || a[i].T != b[i].T {
			return fmt.Errorf("record %d: (%d,%d) vs (%d,%d)", i, a[i].OID, a[i].T, b[i].OID, b[i].T)
		}
		if len(a[i].Samples) != len(b[i].Samples) {
			return fmt.Errorf("record %d: sample count", i)
		}
		for j := range a[i].Samples {
			if a[i].Samples[j].Loc != b[i].Samples[j].Loc ||
				math.Float64bits(a[i].Samples[j].Prob) != math.Float64bits(b[i].Samples[j].Prob) {
				return fmt.Errorf("record %d sample %d differs", i, j)
			}
		}
	}
	return nil
}

// TestBackedTableEquivalence asserts a backed table answers every read
// identically to a flat table over the same append stream, across random
// seal points and query windows — including same-timestamp ties spanning
// seal boundaries and late head records whose T falls inside sealed spans.
func TestBackedTableEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		n := 20 + r.Intn(200)
		recs := randomRecords(r, n, Time(30))
		// Random ascending seal points; sometimes seal everything (empty head).
		var sealAt []int
		cut := 0
		for cut < n {
			cut += 1 + r.Intn(n/2+1)
			if cut > n {
				cut = n
			}
			sealAt = append(sealAt, cut)
			if r.Intn(3) == 0 {
				break
			}
		}
		flat, backed := buildPair(t, recs, sealAt)

		if flat.Len() != backed.Len() {
			t.Fatalf("trial %d: Len %d vs %d", trial, flat.Len(), backed.Len())
		}
		flo, fhi, fok := flat.TimeSpan()
		blo, bhi, bok := backed.TimeSpan()
		if flo != blo || fhi != bhi || fok != bok {
			t.Fatalf("trial %d: TimeSpan (%d,%d,%v) vs (%d,%d,%v)", trial, flo, fhi, fok, blo, bhi, bok)
		}
		if !slices.Equal(flat.Objects(), backed.Objects()) {
			t.Fatalf("trial %d: Objects differ", trial)
		}
		if err := recordsEqual(flat.SortedRecords(), backed.SortedRecords()); err != nil {
			t.Fatalf("trial %d: SortedRecords: %v", trial, err)
		}
		for q := 0; q < 30; q++ {
			ts := Time(r.Intn(35)) - 2
			te := ts + Time(r.Intn(20)) - 2
			if err := recordsEqual(flat.RecordsInRange(ts, te), backed.RecordsInRange(ts, te)); err != nil {
				t.Fatalf("trial %d window [%d,%d]: %v", trial, ts, te, err)
			}
			for _, workers := range []int{1, 3} {
				fs, err := flat.SequencesInRangeSharded(context.Background(), ts, te, workers)
				if err != nil {
					t.Fatal(err)
				}
				bs, err := backed.SequencesInRangeSharded(context.Background(), ts, te, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(fs) != len(bs) {
					t.Fatalf("trial %d window [%d,%d]: %d vs %d objects", trial, ts, te, len(fs), len(bs))
				}
				for oid, fseq := range fs {
					bseq := bs[oid]
					if len(fseq) != len(bseq) {
						t.Fatalf("trial %d oid %d: sequence length %d vs %d", trial, oid, len(fseq), len(bseq))
					}
					for i := range fseq {
						if fseq[i].T != bseq[i].T {
							t.Fatalf("trial %d oid %d elem %d: T %d vs %d", trial, oid, i, fseq[i].T, bseq[i].T)
						}
					}
				}
			}
		}
	}
}

// TestBackedTablePruning asserts a window query never reads partitions whose
// time span does not overlap the window.
func TestBackedTablePruning(t *testing.T) {
	backed := NewTable()
	mk := func(lo, hi Time) *memPart {
		var recs []Record
		for ts := lo; ts <= hi; ts++ {
			recs = append(recs, Record{OID: 1, T: ts, Samples: SampleSet{{Loc: 1, Prob: 1}}})
		}
		return newMemPart(recs)
	}
	parts := []*memPart{mk(0, 9), mk(10, 19), mk(20, 29)}
	backed = NewBackedTable([]SealedPart{parts[0], parts[1], parts[2]})
	got := backed.RecordsInRange(12, 17)
	if len(got) != 6 {
		t.Fatalf("got %d records, want 6", len(got))
	}
	if parts[0].touched != 0 || parts[2].touched != 0 {
		t.Fatalf("non-overlapping partitions were read: touched = %d, %d, %d",
			parts[0].touched, parts[1].touched, parts[2].touched)
	}
	if parts[1].touched != 1 {
		t.Fatalf("overlapping partition read %d times, want 1", parts[1].touched)
	}
}

// TestCommitSealRaces asserts CommitSeal refuses a stale head snapshot.
func TestCommitSealStale(t *testing.T) {
	tab := NewTable()
	tab.Append(Record{OID: 1, T: 1, Samples: SampleSet{{Loc: 1, Prob: 1}}})
	head := tab.HeadRecords()
	part := newMemPart(head)
	// A record lands between snapshot and commit.
	tab.Append(Record{OID: 1, T: 2, Samples: SampleSet{{Loc: 1, Prob: 1}}})
	if err := tab.CommitSeal(part, len(head)); err == nil {
		t.Fatal("CommitSeal accepted a stale head snapshot")
	}
	if err := tab.CommitSeal(part, 2); err == nil {
		t.Fatal("CommitSeal accepted a part/headLen mismatch")
	}
	if len(tab.Sealed()) != 0 || tab.HeadLen() != 2 {
		t.Fatal("failed CommitSeal mutated the table")
	}
}

// TestBackedTableAppendAfterSeal asserts post-seal appends land in the head
// and merge back into reads, including indexed and range reads.
func TestBackedTableAppendAfterSeal(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	recs := randomRecords(r, 100, Time(20))
	flat, backed := buildPair(t, recs, []int{40, 80})
	late := randomRecords(r, 25, Time(20)) // timestamps inside sealed spans
	for _, rec := range late {
		flat.Append(rec)
		backed.Append(rec)
	}
	if err := recordsEqual(flat.SortedRecords(), backed.SortedRecords()); err != nil {
		t.Fatalf("after late appends: %v", err)
	}
	flatRecs, backedRecs := flat.SortedRecords(), backed.SortedRecords()
	for i := 0; i < len(flatRecs); i += 17 {
		fr, br := flatRecs[i], backedRecs[i]
		if fr.OID != br.OID || fr.T != br.T {
			t.Fatalf("record %d: (%d,%d) vs (%d,%d)", i, fr.OID, fr.T, br.OID, br.T)
		}
	}
	count := 0
	for _, rec := range backed.RecordsInRange(5, 15) {
		if rec.T < 5 || rec.T > 15 {
			t.Fatalf("RecordsInRange yielded T=%d outside [5,15]", rec.T)
		}
		count++
	}
	if want := len(flat.RecordsInRange(5, 15)); count != want {
		t.Fatalf("RecordsInRange visited %d records, want %d", count, want)
	}
	fst, bst := flat.ComputeStats(), backed.ComputeStats()
	if fst != bst {
		t.Fatalf("ComputeStats: %+v vs %+v", fst, bst)
	}
}

// TestReplaceSealedRun asserts the compaction swap primitive: a contiguous
// sealed run is replaced by a merged part with reads unchanged, and every
// malformed swap is refused without mutating the table.
func TestReplaceSealedRun(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	recs := randomRecords(r, 120, Time(25))
	flat, backed := buildPair(t, recs, []int{30, 60, 90, 120})
	sealed := backed.Sealed()
	if len(sealed) != 4 {
		t.Fatalf("want 4 sealed parts, got %d", len(sealed))
	}

	// Merge parts 1 and 2 the way a compaction would: concatenate their
	// canonical-order records (adjacent seal runs, so concatenation in span
	// order then a stable sort by T is the canonical merge).
	var merged []Record
	merged = sealed[1].AppendRecords(merged, nil, 0, sealed[1].Len())
	merged = sealed[2].AppendRecords(merged, nil, 0, sealed[2].Len())
	slices.SortStableFunc(merged, func(a, b Record) int {
		switch {
		case a.T < b.T:
			return -1
		case a.T > b.T:
			return 1
		}
		return 0
	})
	neu := newMemPart(merged)

	// Malformed swaps are refused.
	if err := backed.ReplaceSealedRun(nil, neu); err == nil {
		t.Fatal("accepted an empty input run")
	}
	if err := backed.ReplaceSealedRun([]SealedPart{sealed[1], sealed[3]}, neu); err == nil {
		t.Fatal("accepted a non-contiguous run")
	}
	if err := backed.ReplaceSealedRun([]SealedPart{neu}, neu); err == nil {
		t.Fatal("accepted inputs not in the sealed list")
	}
	if err := backed.ReplaceSealedRun([]SealedPart{sealed[1]}, neu); err == nil {
		t.Fatal("accepted a record-count mismatch")
	}
	if got := backed.Sealed(); len(got) != 4 {
		t.Fatalf("failed swaps mutated the sealed list: %d parts", len(got))
	}

	if err := backed.ReplaceSealedRun([]SealedPart{sealed[1], sealed[2]}, neu); err != nil {
		t.Fatalf("ReplaceSealedRun: %v", err)
	}
	if got := backed.Sealed(); len(got) != 3 || got[1] != SealedPart(neu) {
		t.Fatalf("sealed list after swap: %d parts", len(got))
	}
	if err := recordsEqual(flat.SortedRecords(), backed.SortedRecords()); err != nil {
		t.Fatalf("after swap: %v", err)
	}
	for q := 0; q < 20; q++ {
		ts := Time(r.Intn(30)) - 2
		te := ts + Time(r.Intn(20))
		if err := recordsEqual(flat.RecordsInRange(ts, te), backed.RecordsInRange(ts, te)); err != nil {
			t.Fatalf("window [%d,%d] after swap: %v", ts, te, err)
		}
	}
}

// TestRetainedViewBalance asserts every read that decodes sealed records
// retains and releases each part symmetrically, leaving only the owner ref.
func TestRetainedViewBalance(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	recs := randomRecords(r, 80, Time(20))
	_, backed := buildPair(t, recs, []int{40, 80})
	backed.Append(Record{OID: 1, T: 5, Samples: SampleSet{{Loc: 1, Prob: 1}}})

	backed.SortedRecords()
	backed.RecordsInRange(0, 20)
	backed.Objects()
	if _, err := backed.SequencesInRangeSharded(context.Background(), 0, 20, 3); err != nil {
		t.Fatal(err)
	}
	for i, p := range backed.Sealed() {
		mp := p.(*memPart)
		if got := atomic.LoadInt64(&mp.refs); got != 1 {
			t.Fatalf("part %d holds %d refs after reads, want 1 (owner only)", i, got)
		}
	}
}

// windowBytes serializes records field by field, probabilities as raw bits:
// two windows hold the same bytes iff they hold the same records in the same
// order.
func windowBytes(recs []Record) string {
	var b []byte
	for _, r := range recs {
		b = binary.LittleEndian.AppendUint32(b, uint32(r.OID))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.T))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Samples)))
		for _, s := range r.Samples {
			b = binary.LittleEndian.AppendUint32(b, uint32(s.Loc))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Prob))
		}
	}
	return string(b)
}

// identifiedWindow groups t's window [ts, te] under ReadWindow and returns
// the pair a cache stores: the window and the identity of the snapshot it was
// read from. The window is nil when known still names the window.
func identifiedWindow(t *Table, ts, te Time, known *WindowIdentity) (w *Window, id WindowIdentity, err error) {
	id, err = ReadWindow(t, ts, te, known, func(head []Record, sealed []SealedPart) error {
		grouped := GroupSequences(readRange(head, sealed, ts, te))
		w = &grouped
		return nil
	})
	return w, id, err
}

// TestWindowIdentityProperty walks a table through seeded random in-order
// appends, out-of-order appends into old windows, appends no watched window
// sees, seals and compactions, and after every step checks the contract
// caches build on (WindowIdentity): on one table an identity seen before
// means the bytes seen under it, and changed bytes mean a changed identity.
func TestWindowIdentityProperty(t *testing.T) {
	// Data time runs 0..~130; "elsewhere" appends land in [300, 400].
	windows := [][2]Time{{0, 9}, {20, 39}, {35, 60}, {50, 50}, {0, 119}, {100, 119}, {7, 3}, {1000, 2000}}
	kinds := make(map[string]bool) // window states the walk reached
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		tab := NewTable()
		now := Time(0)
		seen := make([]map[string]string, len(windows)) // identity → bytes first seen under it
		last := make([]WindowIdentity, len(windows))
		lastBytes := make([]string, len(windows))
		for w := range seen {
			seen[w] = make(map[string]string)
		}
		for step := 0; step < 250; step++ {
			elsewhere := false
			var what string
			switch p := r.Intn(100); {
			case p < 50:
				what = "in-order append"
				for n := 1 + r.Intn(3); n > 0; n-- {
					tab.Append(Record{OID: ObjectID(r.Intn(6)), T: now, Samples: testSamples(r)})
					now += Time(r.Intn(3))
				}
			case p < 65:
				what = "out-of-order append"
				tab.Append(Record{OID: ObjectID(r.Intn(6)), T: Time(r.Intn(int(now) + 1)), Samples: testSamples(r)})
			case p < 75:
				what, elsewhere = "append elsewhere", true
				tab.Append(Record{OID: ObjectID(r.Intn(6)), T: 300 + Time(r.Intn(101)), Samples: testSamples(r)})
			case p < 90:
				what = "seal"
				if head := tab.HeadRecords(); len(head) > 0 {
					if err := tab.CommitSeal(newMemPart(head), len(head)); err != nil {
						t.Fatal(err)
					}
				}
			default:
				what = "compaction"
				if parts := tab.Sealed(); len(parts) >= 2 {
					i := r.Intn(len(parts) - 1)
					run := parts[i : i+2+r.Intn(min(2, len(parts)-i-1))]
					merged := newMemPart(readRange(nil, run, math.MinInt64, math.MaxInt64))
					if err := tab.ReplaceSealedRun(run, merged); err != nil {
						t.Fatal(err)
					}
				}
			}
			for w, win := range windows {
				seqs, id, err := identifiedWindow(tab, win[0], win[1], nil)
				if err != nil {
					t.Fatal(err)
				}
				recs := tab.RecordsInRange(win[0], win[1])
				bytes := windowBytes(recs)
				at := fmt.Sprintf("seed %d step %d (%s) window %v identity %v", seed, step, what, win, id)

				// The sequences are the records, grouped.
				regrouped := make(map[ObjectID]Sequence)
				for _, rec := range recs {
					regrouped[rec.OID] = append(regrouped[rec.OID], TimedSampleSet{T: rec.T, Samples: rec.Samples})
				}
				if !reflect.DeepEqual(seqs.Map(), regrouped) {
					t.Fatalf("%s: Window's sequences are not RecordsInRange grouped by object", at)
				}
				// Equal identity ⇒ the bytes first seen under it.
				key := fmt.Sprint(id)
				if first, ok := seen[w][key]; ok && first != bytes {
					t.Fatalf("%s: identity seen before over different bytes", at)
				}
				seen[w][key] = bytes
				// Changed bytes ⇒ changed identity; and the conditional read
				// materializes exactly when the identity moved.
				moved := !id.Equal(last[w])
				if bytes != lastBytes[w] && !moved {
					t.Fatalf("%s: bytes changed under an unchanged identity", at)
				}
				if again, _, _ := identifiedWindow(tab, win[0], win[1], &last[w]); (again != nil) != moved {
					t.Fatalf("%s: conditional read materialized=%v with identity moved=%v (was %v)", at, again != nil, moved, last[w])
				}
				// A plain append elsewhere costs no window its identity.
				if elsewhere && moved {
					t.Fatalf("%s: an append outside every window moved the identity from %v", at, last[w])
				}
				last[w], lastBytes[w] = id, bytes
				kinds[fmt.Sprintf("sealed=%v head=%v", len(id.Parts) > 0, id.Head > 0)] = true
			}
		}
	}
	if len(kinds) != 4 {
		t.Errorf("the walk reached window states %v, want all of empty, head-only, sealed-only and straddling", kinds)
	}
}

// hookPart runs a hook when its records are read — after the table's lock is
// released, while a window is being materialized.
type hookPart struct {
	*memPart
	onRead func()
}

func (p *hookPart) AppendRecords(dst []Record, samples *SampleSet, lo, hi int) []Record {
	if p.onRead != nil {
		p.onRead()
	}
	return p.memPart.AppendRecords(dst, samples, lo, hi)
}

// TestWindowIdentityOneSnapshot: an append that lands while a window is being
// materialized under ReadWindow is in neither the sequences nor the identity
// — they describe one snapshot — so a cache storing the pair can never hold
// sequences under an identity that vouches for other records, and its next
// revalidation misses.
func TestWindowIdentityOneSnapshot(t *testing.T) {
	one := SampleSet{{Loc: 1, Prob: 1}}
	part := &hookPart{memPart: newMemPart([]Record{{OID: 1, T: 5, Samples: one}, {OID: 1, T: 8, Samples: one}})}
	tab := NewBackedTable([]SealedPart{part})
	tab.Append(Record{OID: 2, T: 6, Samples: one})
	part.onRead = func() {
		part.onRead = nil
		tab.Append(Record{OID: 3, T: 7, Samples: one})
	}

	seqs, id, err := identifiedWindow(tab, 0, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.HeadLen() != 2 {
		t.Fatal("the hook did not append mid-materialization")
	}
	if !slices.Equal(seqs.OIDs, []ObjectID{1, 2}) || len(seqs.Seqs[1]) != 1 || id.Head != 1 {
		t.Fatalf("sequences %v under identity %v: want the pre-append snapshot on both sides", seqs, id)
	}
	fresh, id2, err := identifiedWindow(tab, 0, 10, &id)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == nil || !slices.Equal(fresh.OIDs, []ObjectID{1, 2, 3}) || len(fresh.Seqs[2]) != 1 || id2.Head != 2 {
		t.Fatalf("revalidating %v after the append returned %v under %v, want a rematerialized window with the new record", id, fresh, id2)
	}
}

// FuzzTableRead holds the backed table's range read to the flat table's: the
// fuzzer picks records over a 16-second domain (so timestamps tie often), the
// seal cuts and late head records whose T falls inside the sealed spans, and
// for several windows — te < ts among them — RecordsInRange and its records
// grouped (GroupSequences), into fresh memory and into an arena, must equal
// the flat table's over the same appends.
// Each record's one sample names its arrival index, so equal records mean the
// same canonical (T, arrival) order. A byte b encodes a record with object
// b>>4 & 7 at T = b & 15; a cut byte seals at its value modulo the record
// count plus one.
func FuzzTableRead(f *testing.F) {
	rec := func(oid, t int) byte { return byte(oid<<4 | t) }
	run := func(oid int, ts ...int) []byte {
		var b []byte
		for i, t := range ts {
			b = append(b, rec(oid+i%3, t))
		}
		return b
	}
	// Sources in order.
	f.Add(run(0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15), []byte{4, 8, 12}, []byte(nil))
	// A tie at a seal boundary, and a late head record on the tie.
	f.Add(run(0, 0, 1, 2, 5, 5, 5, 5, 6, 7), []byte{5}, run(2, 5))
	// A source wholly earlier than the one before it.
	f.Add(run(0, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5), []byte{6}, []byte(nil))
	// Interleaved sources, and late records interleaved with both.
	f.Add(run(0, 0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15), []byte{8}, run(1, 15, 0, 7, 7))
	// A range only the head holds: [10, 15] misses every part.
	f.Add(run(0, 0, 1, 2, 3, 4, 5, 6, 7), []byte{8}, run(0, 12, 13, 14, 15))
	// Many ties, unsorted parts, an empty cut and a late burst.
	f.Add(run(0, 3, 3, 1, 3, 9, 1, 3, 3, 9, 9, 0), []byte{0, 4, 4, 200}, run(3, 3, 3, 9, 0))
	windows := [][2]Time{{0, 15}, {3, 9}, {5, 5}, {9, 3}, {10, 15}, {16, 30}, {-5, 2}, {math.MinInt64, math.MaxInt64}}
	f.Fuzz(func(t *testing.T, recBytes, cutBytes, lateBytes []byte) {
		if len(recBytes) > 512 || len(cutBytes) > 16 || len(lateBytes) > 64 {
			return
		}
		decode := func(bs []byte, first int) []Record {
			recs := make([]Record, len(bs))
			for i, b := range bs {
				recs[i] = Record{OID: ObjectID(b >> 4 & 7), T: Time(b & 15), Samples: SampleSet{{Loc: indoor.PLocID(first + i), Prob: 1}}}
			}
			return recs
		}
		recs, late := decode(recBytes, 0), decode(lateBytes, len(recBytes))
		var cuts []int
		for _, b := range cutBytes {
			cuts = append(cuts, int(b)%(len(recs)+1))
		}
		slices.Sort(cuts)
		flat, backed := buildPair(t, recs, cuts)
		for _, r := range late {
			flat.Append(r)
			backed.Append(r)
		}
		if err := recordsEqual(flat.SortedRecords(), backed.SortedRecords()); err != nil {
			t.Fatalf("SortedRecords: %v", err)
		}
		var arena Arena
		for _, win := range windows {
			ts, te := win[0], win[1]
			if err := recordsEqual(flat.RecordsInRange(ts, te), backed.RecordsInRange(ts, te)); err != nil {
				t.Fatalf("RecordsInRange [%d, %d]: %v", ts, te, err)
			}
			fw := GroupSequences(flat.RecordsInRange(ts, te))
			bw := GroupSequences(backed.RecordsInRange(ts, te))
			if !reflect.DeepEqual(fw, bw) {
				t.Fatalf("grouped window [%d, %d]: backed %v, flat %v", ts, te, bw, fw)
			}
			// Into an arena an earlier window has grown.
			if aw := GroupSequences(backed.RecordsInRange(ts, te), &arena); !reflect.DeepEqual(fw.Map(), aw.Map()) {
				t.Fatalf("grouped window [%d, %d] into an arena differs from the flat window", ts, te)
			}
		}
	})
}
