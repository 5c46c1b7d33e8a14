package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"tkplq/internal/geom"
)

func randRect(rng *rand.Rand, world float64) geom.Rect {
	x := rng.Float64() * world
	y := rng.Float64() * world
	w := rng.Float64() * world / 10
	h := rng.Float64() * world / 10
	return geom.R(x, y, x+w, y+h)
}

// bruteSearch returns ids of rects intersecting query.
func bruteSearch(rects []geom.Rect, query geom.Rect) []int {
	var out []int
	for i, r := range rects {
		if r.Intersects(query) {
			out = append(out, i)
		}
	}
	return out
}

func collectSearch[T any](t *Tree[T], query geom.Rect) []T {
	var out []T
	t.Search(query, func(_ geom.Rect, item T) bool {
		out = append(out, item)
		return true
	})
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := New[int](0)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if got := collectSearch(tr, geom.R(0, 0, 100, 100)); len(got) != 0 {
		t.Errorf("search on empty tree returned %v", got)
	}
	if !tr.Bounds().IsEmpty() {
		t.Error("empty tree bounds should be empty")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr := New[string](4)
	tr.Insert(geom.R(0, 0, 1, 1), "a")
	tr.Insert(geom.R(2, 2, 3, 3), "b")
	tr.Insert(geom.R(0.5, 0.5, 2.5, 2.5), "c")
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := collectSearch(tr, geom.R(0.9, 0.9, 1.1, 1.1))
	sort.Strings(got)
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("search = %v, want [a c]", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 2000
	rects := make([]geom.Rect, n)
	tr := New[int](8)
	for i := range rects {
		rects[i] = randRect(rng, 1000)
		tr.Insert(rects[i], i)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Errorf("expected height >= 3 for %d items with fanout 8, got %d", n, tr.Height())
	}
	for trial := 0; trial < 50; trial++ {
		q := randRect(rng, 1000).Expand(20)
		want := bruteSearch(rects, q)
		got := collectSearch(tr, q)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: result %d = %d, want %d", trial, i, got[i], want[i])
			}
		}
		if c := tr.CountInRect(q); c != len(want) {
			t.Fatalf("trial %d: CountInRect = %d, want %d", trial, c, len(want))
		}
	}
}

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 3000
	rects := make([]geom.Rect, n)
	items := make([]BulkItem[int], n)
	for i := range rects {
		rects[i] = randRect(rng, 500)
		items[i] = BulkItem[int]{Rect: rects[i], Item: i}
	}
	tr := BulkLoad(10, items)
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		q := randRect(rng, 500).Expand(10)
		want := bruteSearch(rects, q)
		got := collectSearch(tr, q)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d mismatch at %d", trial, i)
			}
		}
	}
}

func TestBulkLoadSingleNode(t *testing.T) {
	items := []BulkItem[int]{
		{Rect: geom.R(0, 0, 1, 1), Item: 1},
		{Rect: geom.R(2, 2, 3, 3), Item: 2},
	}
	tr := BulkLoad(16, items)
	if tr.Height() != 1 {
		t.Errorf("Height = %d, want 1", tr.Height())
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := BulkLoad[int](16, nil)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := New[int](4)
	for i := 0; i < 100; i++ {
		tr.Insert(geom.R(float64(i), 0, float64(i)+0.5, 1), i)
	}
	calls := 0
	tr.Search(geom.R(0, 0, 100, 1), func(_ geom.Rect, _ int) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Errorf("early stop after %d calls, want 5", calls)
	}
}

func TestAggregateCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := New[int](6)
	for i := 0; i < 500; i++ {
		tr.Insert(randRect(rng, 100), i)
	}
	// Root entry counts must sum to the tree size.
	sum := 0
	root := tr.Root()
	for i := 0; i < root.Len(); i++ {
		sum += root.Entry(i).Count()
	}
	if sum != tr.Len() {
		t.Errorf("root counts sum to %d, want %d", sum, tr.Len())
	}
	// Whole-world count query returns everything via aggregates.
	if c := tr.CountInRect(geom.R(-1, -1, 101, 101)); c != 500 {
		t.Errorf("CountInRect(world) = %d", c)
	}
}

func TestNodeAccessors(t *testing.T) {
	tr := New[string](4)
	for i := 0; i < 30; i++ {
		tr.Insert(geom.R(float64(i), 0, float64(i)+1, 1), "x")
	}
	root := tr.Root()
	if root.IsLeaf() {
		t.Fatal("root should be internal after splits")
	}
	for i := 0; i < root.Len(); i++ {
		e := root.Entry(i)
		if e.IsLeafEntry() {
			t.Fatal("internal node has leaf entry")
		}
		if e.Child() == nil {
			t.Fatal("internal entry without child")
		}
		if e.Count() <= 0 {
			t.Fatal("entry count not positive")
		}
		if e.Rect().IsEmpty() {
			t.Fatal("entry with empty rect")
		}
	}
}

// Property: after any sequence of inserts, invariants hold and a full-space
// search returns exactly the inserted items.
func TestInsertProperty(t *testing.T) {
	f := func(seed int64, nSmall uint8) bool {
		n := int(nSmall)%120 + 1
		rng := rand.New(rand.NewSource(seed))
		tr := New[int](5)
		for i := 0; i < n; i++ {
			tr.Insert(randRect(rng, 50), i)
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		got := collectSearch(tr, geom.R(-100, -100, 200, 200))
		if len(got) != n {
			return false
		}
		seen := make(map[int]bool, n)
		for _, id := range got {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: STR bulk load and incremental insert answer queries identically.
func TestBulkEquivalentToInsert(t *testing.T) {
	f := func(seed int64, nSmall uint8) bool {
		n := int(nSmall)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		rects := make([]geom.Rect, n)
		items := make([]BulkItem[int], n)
		ins := New[int](8)
		for i := range rects {
			rects[i] = randRect(rng, 100)
			items[i] = BulkItem[int]{Rect: rects[i], Item: i}
			ins.Insert(rects[i], i)
		}
		blk := BulkLoad(8, items)
		if err := blk.CheckInvariants(); err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			q := randRect(rng, 100).Expand(5)
			a := collectSearch(ins, q)
			b := collectSearch(blk, q)
			sort.Ints(a)
			sort.Ints(b)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := New[int](16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(randRect(rng, 10000), i)
	}
}

func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := New[int](16)
	for i := 0; i < 10000; i++ {
		tr.Insert(randRect(rng, 10000), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := randRect(rng, 10000).Expand(50)
		collectSearch(tr, q)
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := make([]BulkItem[int], 10000)
	for i := range items {
		items[i] = BulkItem[int]{Rect: randRect(rng, 10000), Item: i}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(16, items)
	}
}
