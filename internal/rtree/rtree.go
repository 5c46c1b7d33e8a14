// Package rtree implements an in-memory R-tree from scratch, as required by
// the paper's query processing: an R-tree RQ over query S-locations and a
// COUNT-aggregate R-tree RC over object PSL MBRs (paper §4.2, following Tao &
// Papadias' aggregate R-trees). The paper's third tree, the "1DR-tree" over
// the IUPT time attribute (§3.3), is internal/iupt's sorted snapshot searched
// by bisection.
//
// Algorithm 4 builds the two trees and joins them — internal/core keeps each
// for as long as what it was built from cannot have changed — and never
// updates one. So the only way to make a tree is Sort-Tile-Recursive (STR)
// bulk loading (BulkLoad), and a tree is immutable after load: nothing in the
// package writes to a node once BulkLoad returns, which makes a Tree safe for
// any number of concurrent readers without a lock. It answers window queries
// (Search) and carries a per-entry COUNT aggregate on every path from root to
// leaf. Node internals (entries, their MBRs and counts) are exposed read-only
// because the paper's Best-First algorithm (Alg. 4) drives a custom
// heap-ordered join over the two trees' node structures.
package rtree

import (
	"fmt"

	"tkplq/internal/geom"
)

// DefaultMaxEntries is the default node fan-out M. The minimum fill is
// M*2/5 (40%), the classic Guttman recommendation.
const DefaultMaxEntries = 16

// Tree is an R-tree mapping rectangles to values of type T.
// The zero value is not usable; call BulkLoad.
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

// Entry returns a pointer to the i-th entry of the node: a join holds many
// entries at once and should not copy them. The tree is immutable (see the
// package comment), so the entry must not be written through it.
func (n *Node[T]) Entry(i int) *Entry[T] { return &n.entries[i] }

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

// Len returns the number of items in the tree.
func (t *Tree[T]) Len() int { return t.size }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree[T]) Height() int { return t.height }

// Root returns the root node for read-only traversal.
func (t *Tree[T]) Root() *Node[T] { return t.root }

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
