package iupt

import (
	"cmp"
	"context"
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

// TestWindowCarve checks the carved window against the naive append-built
// grouping on random tables in every layout a window can meet — one part, a
// window straddling two parts, head only, sealed parts plus a head holding
// late records, same-timestamp ties, an empty window and te < ts: the
// sequences are equal, in Window's shape (checkWindow), equal to the
// SequencesInRange map, and the reused grouper holds no record after a
// grouping.
func TestWindowCarve(t *testing.T) {
	ctx := context.Background()
	g := getGrouper() // one grouper across every case: big windows, then small
	defer grouperPool.Put(g)
	kinds := make(map[string]bool)
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

				got, id, err := tab.Window(ctx, ts, te, nil)
				if err != nil {
					t.Fatal(err)
				}
				// The same grouping on the test's grouper, whose buffers are
				// inspected after it is reset.
				head, sealed := tab.retainView()
				g.gather(head, sealed, ts, te)
				again, err := g.group(ctx)
				releaseParts(sealed)
				runs := len(g.runs)
				g.reset()
				if err != nil {
					t.Fatal(err)
				}
				checkWindow(t, at, *got, want)
				checkWindow(t, at+" (reused grouper)", again, want)
				if m := tab.SequencesInRange(ts, te); !reflect.DeepEqual(m, want) {
					t.Fatalf("%s: the SequencesInRange map differs from the window", at)
				}
				for i, rec := range g.buf[:cap(g.buf)] {
					if rec.Samples != nil {
						t.Fatalf("%s: the reused buffer still holds record %d's samples", at, i)
					}
				}
				for i, run := range g.runs[:cap(g.runs)] {
					if run != nil {
						t.Fatalf("%s: the reused grouper still holds run %d", at, i)
					}
				}
				if len(g.slot) != 0 {
					t.Fatalf("%s: the reused grouper still maps %d objects", at, len(g.slot))
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
				if runs > 1 {
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

// TestWindowAllocBudget: a cold Window allocates what it keeps — the arena,
// the two columns, the Window and the identity — and nothing per record: the count is
// the same small constant for a window of 1 000 records and of 10 000 over
// the same objects, on a table with a sealed part and a head.
func TestWindowAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	ctx := context.Background()
	allocs := make(map[int]float64)
	for _, n := range []int{1000, 10000} {
		r := rand.New(rand.NewSource(int64(n)))
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{OID: ObjectID(r.Intn(40)), T: Time(i / 4), Samples: testSamples(r)}
		}
		_, tab := buildPair(t, recs, []int{n / 2})
		_, te, _ := tab.TimeSpan()
		if _, _, err := tab.Window(ctx, 0, te, nil); err != nil { // warm the pool
			t.Fatal(err)
		}
		allocs[n] = testing.AllocsPerRun(50, func() {
			if _, _, err := tab.Window(ctx, 0, te, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Window over %d records allocates %v/op", n, allocs[n])
	}
	if allocs[1000] != allocs[10000] || allocs[1000] > 8 {
		t.Errorf("Window allocates %v/op at 1k records and %v/op at 10k, want the same constant ≤ 8", allocs[1000], allocs[10000])
	}
}
