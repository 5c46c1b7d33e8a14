package rtree

import (
	"math"
	"sort"

	"tkplq/internal/geom"
)

// BulkItem pairs a rectangle with its item for bulk loading.
type BulkItem[T any] struct {
	Rect geom.Rect
	Item T
}

// BulkLoad builds a tree from items using Sort-Tile-Recursive (STR) packing.
// STR produces near-full nodes with low overlap, which matters for the
// Best-First join: tighter node MBRs give tighter flow upper bounds and
// earlier termination. maxEntries < 4 selects DefaultMaxEntries. No items
// yield the empty tree: a leaf root with no entries, height 1.
func BulkLoad[T any](maxEntries int, items []BulkItem[T]) *Tree[T] {
	if maxEntries < 4 {
		maxEntries = DefaultMaxEntries
	}
	t := &Tree[T]{
		root:       &Node[T]{leaf: true},
		maxEntries: maxEntries,
		minEntries: maxEntries * 2 / 5,
		height:     1,
	}
	if len(items) == 0 {
		return t
	}
	// Leaf level.
	entries := make([]Entry[T], len(items))
	for i, it := range items {
		entries[i] = Entry[T]{rect: it.Rect, item: it.Item, count: 1}
	}
	nodes := packLevel(entries, t.maxEntries, true)
	height := 1
	// Build upper levels until a single root remains.
	for len(nodes) > 1 {
		parents := make([]Entry[T], len(nodes))
		for i, n := range nodes {
			parents[i] = Entry[T]{rect: n.mbr(), child: n, count: n.count()}
		}
		nodes = packLevel(parents, t.maxEntries, false)
		height++
	}
	t.root = nodes[0]
	t.height = height
	t.size = len(items)
	return t
}

// packLevel groups entries into nodes of at most maxE entries using STR:
// sort by center X, slice into vertical strips of ~sqrt(#nodes) runs, sort
// each strip by center Y, and cut into nodes. Strip and node sizes are
// balanced so no remainder node drops below the tree's minimum fill.
func packLevel[T any](entries []Entry[T], maxE int, leaf bool) []*Node[T] {
	n := len(entries)
	nodeCount := (n + maxE - 1) / maxE
	if nodeCount == 1 {
		node := &Node[T]{leaf: leaf, entries: entries}
		return []*Node[T]{node}
	}
	stripCount := int(math.Ceil(math.Sqrt(float64(nodeCount))))
	perStrip := stripCount * maxE

	sort.Slice(entries, func(i, j int) bool {
		return entries[i].rect.Center().X < entries[j].rect.Center().X
	})

	var nodes []*Node[T]
	offset := 0
	for _, stripSize := range balancedChunks(n, perStrip) {
		strip := entries[offset : offset+stripSize]
		offset += stripSize
		sort.Slice(strip, func(i, j int) bool {
			return strip[i].rect.Center().Y < strip[j].rect.Center().Y
		})
		o := 0
		for _, chunkSize := range balancedChunks(len(strip), maxE) {
			chunk := strip[o : o+chunkSize]
			o += chunkSize
			node := &Node[T]{leaf: leaf, entries: append([]Entry[T](nil), chunk...)}
			nodes = append(nodes, node)
		}
	}
	return nodes
}

// balancedChunks splits total into ceil(total/maxSize) chunk sizes differing
// by at most one, so the smallest chunk holds at least floor(total/k) >=
// ceil(maxSize/2) - 1 entries, which always satisfies the 40% minimum fill.
func balancedChunks(total, maxSize int) []int {
	k := (total + maxSize - 1) / maxSize
	if k == 0 {
		return nil
	}
	base, rem := total/k, total%k
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
	return sizes
}
