package rtree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

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
	tr := BulkLoad[int](0, nil)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if got := collectSearch(tr, geom.R(0, 0, 100, 100)); len(got) != 0 {
		t.Errorf("search on empty tree returned %v", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSearchSmall(t *testing.T) {
	tr := BulkLoad(4, []BulkItem[string]{
		{Rect: geom.R(0, 0, 1, 1), Item: "a"},
		{Rect: geom.R(2, 2, 3, 3), Item: "b"},
		{Rect: geom.R(0.5, 0.5, 2.5, 2.5), Item: "c"},
	})
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

// subtreeItems returns the items stored at or below e, by walking the public
// node accessors down to the leaves.
func subtreeItems(e *Entry[int]) []int {
	if e.IsLeafEntry() {
		return []int{e.Item()}
	}
	var out []int
	for i := 0; i < e.Child().Len(); i++ {
		out = append(out, subtreeItems(e.Child().Entry(i))...)
	}
	return out
}

// checkAggregates asserts, for every entry at or below n, that its COUNT is
// the number of items under it and its rectangle the tight MBR of theirs. It
// returns the depth of the leaves below n (1 when n is a leaf).
func checkAggregates(t *testing.T, n *Node[int], rects []geom.Rect) int {
	t.Helper()
	depth := 1
	for i := 0; i < n.Len(); i++ {
		e := n.Entry(i)
		under := subtreeItems(e)
		mbr := geom.EmptyRect()
		for _, id := range under {
			mbr = mbr.Union(rects[id])
		}
		if e.Count() != len(under) {
			t.Fatalf("entry COUNT = %d, %d items under it", e.Count(), len(under))
		}
		if e.Rect() != mbr {
			t.Fatalf("entry rect %v, MBR of its items %v", e.Rect(), mbr)
		}
		if !e.IsLeafEntry() {
			depth = 1 + checkAggregates(t, e.Child(), rects)
		}
	}
	return depth
}

// TestBulkLoadMatchesBruteForce is the package's reference test: at sizes that
// hit every STR packing remainder, the loaded tree keeps its invariants,
// carries exact COUNT aggregates and tight MBRs on every entry, and answers
// window queries exactly like a linear scan.
func TestBulkLoadMatchesBruteForce(t *testing.T) {
	const m = 10
	for _, n := range []int{0, 1, m, m + 1, m*m - 1, m*m + 1, 1000, 3000} {
		rng := rand.New(rand.NewSource(7))
		rects := make([]geom.Rect, n)
		items := make([]BulkItem[int], n)
		for i := range rects {
			rects[i] = randRect(rng, 500)
			items[i] = BulkItem[int]{Rect: rects[i], Item: i}
		}
		tr := BulkLoad(m, items)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rootCount := 0
		for i := 0; i < tr.Root().Len(); i++ {
			rootCount += tr.Root().Entry(i).Count()
		}
		if rootCount != n {
			t.Fatalf("n=%d: root COUNT = %d", n, rootCount)
		}
		h := tr.Height()
		if depth := checkAggregates(t, tr.Root(), rects); depth != h {
			t.Fatalf("n=%d: Height = %d, leaves at depth %d", n, h, depth)
		}
		if (h == 1) != (n <= m) || math.Pow(m, float64(h)) < float64(n) {
			t.Fatalf("n=%d: Height = %d cannot hold the items at fan-out %d", n, h, m)
		}
		for trial := 0; trial < 50; trial++ {
			q := randRect(rng, 500).Expand(10)
			want := bruteSearch(rects, q)
			got := collectSearch(tr, q)
			sort.Ints(got)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d trial %d: Search = %v, brute force %v", n, trial, got, want)
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
	items := make([]BulkItem[int], 100)
	for i := range items {
		items[i] = BulkItem[int]{Rect: geom.R(float64(i), 0, float64(i)+0.5, 1), Item: i}
	}
	tr := BulkLoad(4, items)
	calls := 0
	tr.Search(geom.R(0, 0, 100, 1), func(_ geom.Rect, _ int) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Errorf("early stop after %d calls, want 5", calls)
	}
}

func TestNodeAccessors(t *testing.T) {
	items := make([]BulkItem[string], 30)
	for i := range items {
		items[i] = BulkItem[string]{Rect: geom.R(float64(i), 0, float64(i)+1, 1), Item: "x"}
	}
	root := BulkLoad(4, items).Root()
	if root.IsLeaf() {
		t.Fatal("root of 30 items at fan-out 4 should be internal")
	}
	for i := 0; i < root.Len(); i++ {
		e := root.Entry(i)
		if e != root.Entry(i) {
			t.Fatalf("Entry(%d) is not a stable pointer into the node", i)
		}
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

func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := make([]BulkItem[int], 10000)
	for i := range items {
		items[i] = BulkItem[int]{Rect: randRect(rng, 10000), Item: i}
	}
	tr := BulkLoad(16, items)
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
