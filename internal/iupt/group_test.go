package iupt

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// raceEnabled is set by race_enabled_test.go under -race, where sync.Pool is
// deliberately lossy and the instrumentation itself allocates — the budget
// test skips there.
var raceEnabled bool

// naiveSequences is the reference grouping: the records in arrival order,
// stably sorted by T (the canonical order), filtered to [ts, te] and appended
// object by object.
func naiveSequences(arrival []Record, ts, te Time) map[ObjectID]Sequence {
	recs := slices.Clone(arrival)
	slices.SortStableFunc(recs, func(a, b Record) int { return cmp.Compare(a.T, b.T) })
	out := make(map[ObjectID]Sequence)
	for _, r := range recs {
		if ts <= r.T && r.T <= te {
			out[r.OID] = append(out[r.OID], TimedSampleSet{T: r.T, Samples: r.Samples})
		}
	}
	return out
}

// checkWindow asserts w is the append-built grouping want in Window's shape:
// OIDs strictly ascending and aligned with Seqs, no empty sequence, and every
// sequence capped (cap == len, so no consumer can append into a neighbour in
// the arena).
func checkWindow(t *testing.T, at string, w Window, want map[ObjectID]Sequence) {
	t.Helper()
	if len(w.OIDs) != len(w.Seqs) {
		t.Fatalf("%s: %d object ids but %d sequences", at, len(w.OIDs), len(w.Seqs))
	}
	for i, oid := range w.OIDs {
		if i > 0 && oid <= w.OIDs[i-1] {
			t.Fatalf("%s: object ids not strictly ascending: %d after %d", at, oid, w.OIDs[i-1])
		}
		if seq := w.Seqs[i]; len(seq) == 0 || cap(seq) != len(seq) {
			t.Fatalf("%s: object %d's sequence has len %d, cap %d", at, oid, len(seq), cap(seq))
		}
	}
	if !reflect.DeepEqual(w.Map(), want) {
		t.Fatalf("%s: carved sequences differ from the append-built ones", at)
	}
}

// concatRange is readRange without the merge: the sources' records of
// [ts, te] in arrival order, parts in seal order and the head last.
func concatRange(head []Record, sealed []SealedPart, ts, te Time) []Record {
	var out []Record
	for _, p := range sealed {
		if lo, hi := p.Locate(ts, te); lo < hi {
			out = p.AppendRecords(out, nil, lo, hi)
		}
	}
	return append(out, rangeSubslice(head, ts, te)...)
}

// TestWindowCarve checks the grouped window against the naive append-built
// grouping on random tables in every layout a window can meet — one part, a
// window straddling two parts, head only, sealed parts plus a head holding
// late records, same-timestamp ties, an empty window and te < ts: the
// sequences of GroupSequences(RecordsInRange), in fresh memory and in an
// arena earlier windows have grown, are equal, in Window's shape
// (checkWindow), equal to the SequencesInRange map, and the pooled grouper
// keeps no object.
func TestWindowCarve(t *testing.T) {
	kinds := make(map[string]bool)
	var arena Arena
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 40 + r.Intn(300)
		tMax := Time(10 + r.Intn(60)) // small domains: many same-timestamp ties
		arrival := randomRecords(r, n, tMax)
		layouts := []struct {
			name   string
			sealAt []int
		}{
			{"head only", nil},
			{"one part", []int{n}},
			{"two parts", []int{n / 2, n}},
			{"sealed + head", []int{n / 3, 2 * n / 3}},
		}
		for _, lay := range layouts {
			_, tab := buildPair(t, arrival, lay.sealAt)
			// Late head records whose T falls inside the sealed spans.
			late := randomRecords(r, r.Intn(20), tMax)
			for _, rec := range late {
				tab.Append(rec)
			}
			all := append(slices.Clone(arrival), late...)
			windows := [][2]Time{{0, tMax}, {tMax / 2, tMax / 2}, {tMax + 100, tMax + 200}, {tMax / 2, tMax / 3}}
			for q := 0; q < 6; q++ {
				ts := Time(r.Intn(int(tMax)+4)) - 2
				windows = append(windows, [2]Time{ts, ts + Time(r.Intn(int(tMax)))})
			}
			for _, w := range windows {
				ts, te := w[0], w[1]
				at := fmt.Sprintf("seed %d, %s, window [%d, %d]", seed, lay.name, ts, te)
				want := naiveSequences(all, ts, te)

				checkWindow(t, at, GroupSequences(tab.RecordsInRange(ts, te)), want)
				// The same read under ReadWindow, which names the case,
				// grouped into the arena.
				var merged bool
				id, err := ReadWindow(tab, ts, te, nil, func(head []Record, sealed []SealedPart) error {
					recs := readRange(head, sealed, ts, te)
					merged = recordsEqual(recs, concatRange(head, sealed, ts, te)) != nil
					checkWindow(t, at+" (arena)", GroupSequences(recs, &arena), want)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				clear(arena.Seqs)
				clear(arena.Sets)
				arena = Arena{OIDs: arena.OIDs[:0], Seqs: arena.Seqs[:0], Sets: arena.Sets[:0]}
				g := grouperPool.Get().(*grouper)
				if len(g.slot) != 0 || len(g.oids) != 0 || len(g.next) != 0 || len(g.dense) != 0 {
					t.Fatalf("%s: the pooled grouper still maps %d objects", at, len(g.slot))
				}
				grouperPool.Put(g)
				if m := tab.SequencesInRange(ts, te); !reflect.DeepEqual(m, want) {
					t.Fatalf("%s: the SequencesInRange map differs from the window", at)
				}
				switch {
				case te < ts:
					kinds["te < ts"] = true
				case len(want) == 0:
					kinds["empty"] = true
				case len(id.Parts) > 1:
					kinds["straddling parts"] = true
				case len(id.Parts) == 1 && id.Head > 0:
					kinds["sealed + head"] = true
				case len(id.Parts) == 1:
					kinds["one part"] = true
				default:
					kinds["head only"] = true
				}
				if merged {
					kinds["merged"] = true
				}
			}
		}
		flat, _ := buildPair(t, arrival, nil)
		checkWindow(t, fmt.Sprintf("seed %d: GroupSequences", seed), GroupSequences(flat.SortedRecords()), naiveSequences(arrival, math.MinInt64, math.MaxInt64))
	}
	if len(kinds) != 7 {
		t.Errorf("the cases reached %v, want te < ts, empty, head only, one part, sealed + head, straddling parts and merged", kinds)
	}
}

// TestWindowAllocBudget: a raw window — RecordsInRange grouped by
// GroupSequences — allocates what it keeps, the records and the grouped
// columns and arena, and nothing per record: the count is the same small
// constant for a window of 1 000 records and of 10 000 over the same
// objects, on a table with a sealed part and a head.
func TestWindowAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	allocs := make(map[int]float64)
	for _, n := range []int{1000, 10000} {
		r := rand.New(rand.NewSource(int64(n)))
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{OID: ObjectID(r.Intn(40)), T: Time(i / 4), Samples: testSamples(r)}
		}
		_, tab := buildPair(t, recs, []int{n / 2})
		_, te, _ := tab.TimeSpan()
		GroupSequences(tab.RecordsInRange(0, te)) // warm the pool
		allocs[n] = testing.AllocsPerRun(50, func() {
			GroupSequences(tab.RecordsInRange(0, te))
		})
		t.Logf("a raw window over %d records allocates %v/op", n, allocs[n])
	}
	if allocs[1000] != allocs[10000] || allocs[1000] > 4 {
		t.Errorf("a raw window allocates %v/op at 1k records and %v/op at 10k, want the same constant ≤ 4", allocs[1000], allocs[10000])
	}
}

// TestArenaWindowAllocBudget: records grouped into a recycled arena reuse
// the arena's buffers for the sequences and the columns, so the grouping
// allocates little more than nothing.
func TestArenaWindowAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	r := rand.New(rand.NewSource(3))
	recs := make([]Record, 4000)
	for i := range recs {
		recs[i] = Record{OID: ObjectID(r.Intn(40)), T: Time(i / 4), Samples: testSamples(r)}
	}
	_, tab := buildPair(t, recs, []int{2000})
	_, te, _ := tab.TimeSpan()
	window := tab.RecordsInRange(0, te)
	var arena Arena
	allocs := testing.AllocsPerRun(50, func() {
		arena = Arena{OIDs: arena.OIDs[:0], Seqs: arena.Seqs[:0], Sets: arena.Sets[:0]}
		if w := GroupSequences(window, &arena); len(w.OIDs) != 40 {
			t.Fatalf("window of %d objects, want 40", len(w.OIDs))
		}
	})
	t.Logf("a window grouped into a warm arena allocates %v/op", allocs)
	if allocs > 3 {
		t.Errorf("a window grouped into a warm arena allocates %v/op, want ≤ 3", allocs)
	}
}

// BenchmarkTableWindow measures the raw window — RecordsInRange grouped by
// GroupSequences, the read the live monitor takes: 24 000 records of 40
// objects sealed into 1, 6 or 12 parts in time order, plus a head of 200
// late records, grouped into fresh memory. The head's records come either in order (after every
// sealed record) or at random T inside the sealed span, which makes the
// read merge the head into the whole range.
func BenchmarkTableWindow(b *testing.B) {
	const sealedN, headN = 24000, 200
	for _, nparts := range []int{1, 6, 12} {
		for _, head := range []string{"ordered", "random"} {
			b.Run(fmt.Sprintf("parts=%d/head=%s", nparts, head), func(b *testing.B) {
				r := rand.New(rand.NewSource(1))
				recs := make([]Record, sealedN)
				for i := range recs {
					recs[i] = Record{OID: ObjectID(r.Intn(40)), T: Time(i / 4), Samples: testSamples(r)}
				}
				parts := make([]SealedPart, nparts)
				for k := range parts {
					parts[k] = newMemPart(recs[k*sealedN/nparts : (k+1)*sealedN/nparts])
				}
				tab := NewBackedTable(parts)
				for i := 0; i < headN; i++ {
					t := Time(sealedN/4 + i)
					if head == "random" {
						t = Time(r.Intn(sealedN / 4))
					}
					tab.Append(Record{OID: ObjectID(r.Intn(40)), T: t, Samples: testSamples(r)})
				}
				_, te, _ := tab.TimeSpan()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if w := GroupSequences(tab.RecordsInRange(0, te)); len(w.OIDs) != 40 {
						b.Fatalf("window of %d objects, want 40", len(w.OIDs))
					}
				}
			})
		}
	}
}
