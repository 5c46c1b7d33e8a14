// Package rtree implements an in-memory R-tree from scratch, as required by
// the paper's query processing: an R-tree RQ over query S-locations and a
// COUNT-aggregate R-tree RC over object PSL MBRs (paper §4.2, following Tao &
// Papadias' aggregate R-trees). The paper's third tree, the "1DR-tree" over
// the IUPT time attribute (§3.3), is internal/iupt's sorted snapshot searched
// by bisection.
//
// The tree supports Guttman-style insertion with quadratic node splitting,
// Sort-Tile-Recursive (STR) bulk loading, window queries, and per-entry
// aggregate counts maintained on every path from root to leaf. Node internals
// (entries, their MBRs and counts) are exposed read-only because the paper's
// Best-First algorithm (Alg. 4) drives a custom heap-ordered join over the
// two trees' node structures.
package rtree

import (
	"fmt"

	"tkplq/internal/geom"
)

// DefaultMaxEntries is the default node fan-out M. The minimum fill is
// M*2/5 (40%), the classic Guttman recommendation.
const DefaultMaxEntries = 16

// Tree is an R-tree mapping rectangles to values of type T.
// The zero value is not usable; call New.
type Tree[T any] struct {
	root       *Node[T]
	maxEntries int
	minEntries int
	size       int
	height     int // number of levels; 1 = root is a leaf
}

// Node is an R-tree node. Leaf nodes hold item entries; internal nodes hold
// child entries. Node exposes read-only accessors so query algorithms
// (notably the paper's Best-First tree join) can traverse the structure.
type Node[T any] struct {
	leaf    bool
	entries []Entry[T]
}

// Entry is a slot in a node: a rectangle plus either a child node (internal
// levels) or an item (leaf level), along with the COUNT aggregate of items
// at or below the entry.
type Entry[T any] struct {
	rect  geom.Rect
	child *Node[T] // nil at leaf level
	item  T        // zero unless leaf entry
	count int      // number of items under this entry (1 for leaf entries)
}

// Rect returns the entry's minimum bounding rectangle.
func (e Entry[T]) Rect() geom.Rect { return e.rect }

// Count returns the COUNT aggregate: how many items are stored at or below
// this entry. Leaf entries always report 1.
func (e Entry[T]) Count() int { return e.count }

// IsLeafEntry reports whether the entry holds an item rather than a child
// node.
func (e Entry[T]) IsLeafEntry() bool { return e.child == nil }

// Child returns the child node of an internal entry, or nil for leaf
// entries.
func (e Entry[T]) Child() *Node[T] { return e.child }

// Item returns the item of a leaf entry (zero value for internal entries).
func (e Entry[T]) Item() T { return e.item }

// IsLeaf reports whether the node is at the leaf level.
func (n *Node[T]) IsLeaf() bool { return n.leaf }

// Len returns the number of entries in the node.
func (n *Node[T]) Len() int { return len(n.entries) }

// Entry returns the i-th entry of the node.
func (n *Node[T]) Entry(i int) Entry[T] { return n.entries[i] }

// mbr returns the bounding rectangle of all entries in the node.
func (n *Node[T]) mbr() geom.Rect {
	out := geom.EmptyRect()
	for i := range n.entries {
		out = out.Union(n.entries[i].rect)
	}
	return out
}

// count returns the total item count in the node's subtree.
func (n *Node[T]) count() int {
	c := 0
	for i := range n.entries {
		c += n.entries[i].count
	}
	return c
}

// New returns an empty tree with fan-out maxEntries (DefaultMaxEntries when
// maxEntries < 4; fan-outs below 4 make quadratic split degenerate).
func New[T any](maxEntries int) *Tree[T] {
	if maxEntries < 4 {
		maxEntries = DefaultMaxEntries
	}
	return &Tree[T]{
		root:       &Node[T]{leaf: true},
		maxEntries: maxEntries,
		minEntries: maxEntries * 2 / 5,
		height:     1,
	}
}

// Len returns the number of items in the tree.
func (t *Tree[T]) Len() int { return t.size }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree[T]) Height() int { return t.height }

// Root returns the root node for read-only traversal.
func (t *Tree[T]) Root() *Node[T] { return t.root }

// Bounds returns the MBR of all items (empty rect for an empty tree).
func (t *Tree[T]) Bounds() geom.Rect { return t.root.mbr() }

// Insert adds an item with the given bounding rectangle.
func (t *Tree[T]) Insert(rect geom.Rect, item T) {
	e := Entry[T]{rect: rect, item: item, count: 1}
	split := t.insert(t.root, e, t.height)
	if split != nil {
		// Root split: grow the tree by one level.
		old := t.root
		t.root = &Node[T]{
			leaf: false,
			entries: []Entry[T]{
				{rect: old.mbr(), child: old, count: old.count()},
				{rect: split.mbr(), child: split, count: split.count()},
			},
		}
		t.height++
	}
	t.size++
}

// insert pushes entry e down to the leaf level, splitting on overflow.
// level counts down from t.height; level 1 is the leaf level.
// It returns a new sibling node if n was split, else nil.
func (t *Tree[T]) insert(n *Node[T], e Entry[T], level int) *Node[T] {
	if level == 1 {
		n.entries = append(n.entries, e)
		if len(n.entries) > t.maxEntries {
			return t.splitNode(n)
		}
		return nil
	}
	i := chooseSubtree(n, e.rect)
	split := t.insert(n.entries[i].child, e, level-1)
	// Refresh the chosen entry's MBR and count.
	n.entries[i].rect = n.entries[i].child.mbr()
	n.entries[i].count = n.entries[i].child.count()
	if split != nil {
		n.entries = append(n.entries, Entry[T]{
			rect: split.mbr(), child: split, count: split.count(),
		})
		if len(n.entries) > t.maxEntries {
			return t.splitNode(n)
		}
	}
	return nil
}

// chooseSubtree picks the child entry needing the least enlargement to
// absorb rect, breaking ties by smaller area (Guttman's ChooseLeaf).
func chooseSubtree[T any](n *Node[T], rect geom.Rect) int {
	best := 0
	bestEnl := n.entries[0].rect.Enlargement(rect)
	bestArea := n.entries[0].rect.Area()
	for i := 1; i < len(n.entries); i++ {
		enl := n.entries[i].rect.Enlargement(rect)
		area := n.entries[i].rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// splitNode performs Guttman's quadratic split in place: n keeps one group,
// the returned node holds the other.
func (t *Tree[T]) splitNode(n *Node[T]) *Node[T] {
	entries := n.entries
	seedA, seedB := quadraticPickSeeds(entries)

	groupA := []Entry[T]{entries[seedA]}
	groupB := []Entry[T]{entries[seedB]}
	mbrA, mbrB := entries[seedA].rect, entries[seedB].rect

	rest := make([]Entry[T], 0, len(entries)-2)
	for i, e := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, e)
		}
	}

	for len(rest) > 0 {
		// Force assignment when one group must take everything left to
		// reach the minimum fill.
		if len(groupA)+len(rest) <= t.minEntries {
			groupA = append(groupA, rest...)
			for _, e := range rest {
				mbrA = mbrA.Union(e.rect)
			}
			break
		}
		if len(groupB)+len(rest) <= t.minEntries {
			groupB = append(groupB, rest...)
			for _, e := range rest {
				mbrB = mbrB.Union(e.rect)
			}
			break
		}
		// PickNext: the entry with the greatest preference difference.
		bestIdx, bestDiff := 0, -1.0
		for i, e := range rest {
			dA := mbrA.Enlargement(e.rect)
			dB := mbrB.Enlargement(e.rect)
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestIdx, bestDiff = i, diff
			}
		}
		e := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]

		dA := mbrA.Enlargement(e.rect)
		dB := mbrB.Enlargement(e.rect)
		switch {
		case dA < dB:
			groupA = append(groupA, e)
			mbrA = mbrA.Union(e.rect)
		case dB < dA:
			groupB = append(groupB, e)
			mbrB = mbrB.Union(e.rect)
		case mbrA.Area() < mbrB.Area():
			groupA = append(groupA, e)
			mbrA = mbrA.Union(e.rect)
		case len(groupA) <= len(groupB):
			groupA = append(groupA, e)
			mbrA = mbrA.Union(e.rect)
		default:
			groupB = append(groupB, e)
			mbrB = mbrB.Union(e.rect)
		}
	}

	n.entries = groupA
	return &Node[T]{leaf: n.leaf, entries: groupB}
}

// quadraticPickSeeds returns the pair of entries wasting the most area if
// grouped together.
func quadraticPickSeeds[T any](entries []Entry[T]) (int, int) {
	seedA, seedB, worst := 0, 1, -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			u := entries[i].rect.Union(entries[j].rect)
			waste := u.Area() - entries[i].rect.Area() - entries[j].rect.Area()
			if waste > worst {
				seedA, seedB, worst = i, j, waste
			}
		}
	}
	return seedA, seedB
}

// Search invokes fn for every item whose rectangle intersects query.
// Traversal stops early if fn returns false.
func (t *Tree[T]) Search(query geom.Rect, fn func(rect geom.Rect, item T) bool) {
	searchNode(t.root, query, fn)
}

func searchNode[T any](n *Node[T], query geom.Rect, fn func(geom.Rect, T) bool) bool {
	for i := range n.entries {
		e := &n.entries[i]
		if !e.rect.Intersects(query) {
			continue
		}
		if n.leaf {
			if !fn(e.rect, e.item) {
				return false
			}
		} else if !searchNode(e.child, query, fn) {
			return false
		}
	}
	return true
}

// CountInRect returns the number of items intersecting query, using COUNT
// aggregates to skip fully-covered subtrees.
func (t *Tree[T]) CountInRect(query geom.Rect) int {
	return countNode(t.root, query)
}

func countNode[T any](n *Node[T], query geom.Rect) int {
	total := 0
	for i := range n.entries {
		e := &n.entries[i]
		if !e.rect.Intersects(query) {
			continue
		}
		if n.leaf {
			total++
		} else if query.ContainsRect(e.rect) {
			total += e.count
		} else {
			total += countNode(e.child, query)
		}
	}
	return total
}

// All invokes fn for every item in the tree.
func (t *Tree[T]) All(fn func(rect geom.Rect, item T) bool) {
	t.Search(geom.R(-1e18, -1e18, 1e18, 1e18), fn)
}

// CheckInvariants validates structural invariants: MBR containment, COUNT
// aggregates, leaf depth uniformity and fill factors. Intended for tests;
// it returns a descriptive error on the first violation found.
func (t *Tree[T]) CheckInvariants() error {
	total, err := checkNode(t.root, t.height, t.maxEntries, t.minEntries, true)
	if err != nil {
		return err
	}
	if total != t.size {
		return fmt.Errorf("rtree: size mismatch: counted %d, recorded %d", total, t.size)
	}
	return nil
}

func checkNode[T any](n *Node[T], level, maxE, minE int, isRoot bool) (int, error) {
	if level == 1 != n.leaf {
		return 0, fmt.Errorf("rtree: leaf flag inconsistent at level %d", level)
	}
	if len(n.entries) > maxE {
		return 0, fmt.Errorf("rtree: node overflow: %d > %d", len(n.entries), maxE)
	}
	if !isRoot && len(n.entries) < minE {
		return 0, fmt.Errorf("rtree: node underflow: %d < %d", len(n.entries), minE)
	}
	total := 0
	for i := range n.entries {
		e := &n.entries[i]
		if n.leaf {
			if e.child != nil {
				return 0, fmt.Errorf("rtree: leaf entry with child")
			}
			if e.count != 1 {
				return 0, fmt.Errorf("rtree: leaf entry count %d != 1", e.count)
			}
			total++
			continue
		}
		if e.child == nil {
			return 0, fmt.Errorf("rtree: internal entry without child")
		}
		if got := e.child.mbr(); !e.rect.ContainsRect(got) || e.rect != got {
			return 0, fmt.Errorf("rtree: stale MBR: entry %v child %v", e.rect, got)
		}
		sub, err := checkNode(e.child, level-1, maxE, minE, false)
		if err != nil {
			return 0, err
		}
		if sub != e.count {
			return 0, fmt.Errorf("rtree: stale count: entry %d subtree %d", e.count, sub)
		}
		total += sub
	}
	return total, nil
}
