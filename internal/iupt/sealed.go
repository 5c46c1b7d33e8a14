package iupt

import (
	"fmt"
	"slices"
)

// Sealed partitions. A Table normally holds every record in heap memory (the
// "head"). For larger-than-RAM datasets the table can additionally carry a
// list of SealedParts — immutable, time-bounded record batches that live
// outside the heap (internal/parts memory-maps them from columnar partition
// files) — and plan every read over only the parts whose time span overlaps
// the query window.
//
// The determinism contract survives sealing. The canonical record order of a
// flat table is a stable sort by T: same-timestamp records keep their arrival
// order. Parts are sealed in arrival order — every record of part i was
// appended before every record of part i+1, and before every head record —
// so merging the sources in that order, each into the records before it with
// timestamp ties going to the earlier source (readRange), performs exactly
// the stable sort's interleaving. RecordsInRange therefore yields records in
// the same canonical (T, arrival) order a flat table over the union would,
// which keeps rankings and float64 flows bit-identical between the two
// layouts.

// SealedPart is one immutable, time-bounded batch of records backing a
// Table. Implementations must be safe for concurrent use and must yield
// records in the canonical (T, arrival) order they were sealed in.
// internal/parts provides the mmap-backed implementation.
type SealedPart interface {
	// Len returns the number of records in the part.
	Len() int
	// Span returns the part's inclusive time bounds. A part is never empty.
	Span() (lo, hi Time)
	// Locate returns the positions [lo, hi) of the part's records with
	// ts <= T <= te; hi <= lo when there are none. Positions index the
	// part's records in canonical order, 0 to Len()-1.
	Locate(ts, te Time) (lo, hi int)
	// AppendRecords appends the part's records at positions [lo, hi) to
	// dst, in canonical order, and returns the extended slice. Appended
	// records must be immutable (never rewritten by later calls). A part
	// that decodes sample sets carves them from the tail of *samples,
	// extending it, so a caller that recycles the buffer (internal/core's
	// windows over slabs) decodes without allocating — and owns the decoded
	// sets' lifetime; a nil samples asks for fresh memory of exactly the
	// range's size.
	AppendRecords(dst []Record, samples *SampleSet, lo, hi int) []Record
	// Objects returns the part's distinct object ids, ascending. The result
	// is shared and must not be modified.
	Objects() []ObjectID
	// Identity returns a value unique to this part's immutable contents
	// within its store's lifetime — compaction produces a part with a new
	// identity. Caches key on it: identical identity implies identical bytes.
	Identity() uint64
	// Retain and Release bracket reads. A part's backing storage (e.g. an
	// mmap) stays valid while any retain is outstanding; the owner's final
	// release frees it. The table retains parts inside its lock before
	// handing them to readers, so a concurrent compaction swap can never
	// unmap a part mid-read.
	Retain()
	Release()
}

// NewBackedTable returns a table whose reads plan over the sealed parts plus
// an initially empty mutable head. Parts must be in seal order (records of
// parts[i] arrived before records of parts[i+1]); appends go to the head.
func NewBackedTable(parts []SealedPart) *Table {
	t := NewTable()
	t.sealed = append([]SealedPart(nil), parts...)
	return t
}

// Sealed returns the table's sealed parts, in seal order. The returned slice
// is a snapshot; the parts themselves are shared and immutable.
func (t *Table) Sealed() []SealedPart {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sealed
}

// HeadLen returns the number of records in the mutable head (records not yet
// sealed). For a flat table this equals Len.
func (t *Table) HeadLen() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.records)
}

// HeadRecords returns a time-ordered snapshot of the head records only — the
// records a seal would capture. Like SortedRecords, the returned slice is
// immutable: later appends and re-sorts never mutate its backing array.
func (t *Table) HeadRecords() []Record {
	return t.sortedRecords()
}

// CommitSeal atomically moves the head into a sealed part: part is appended
// to the sealed list and the head is cleared. headLen must equal the current
// head length (the caller snapshots the head via HeadRecords, builds the
// part from it, and is responsible for blocking appends in between — the
// System's ingest lock does); a mismatch means a record was appended
// mid-seal and CommitSeal fails without changing the table. Reads racing the
// commit see either the old view (head) or the new one (sealed part), never
// both or neither — the two lists swap under one lock.
func (t *Table) CommitSeal(part SealedPart, headLen int) error {
	if part.Len() != headLen {
		return fmt.Errorf("iupt: seal holds %d records, head snapshot had %d", part.Len(), headLen)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.records) != headLen {
		return fmt.Errorf("iupt: head grew to %d records during seal of %d — appends must be blocked across a seal", len(t.records), headLen)
	}
	t.sealed = append(t.sealed, part)
	t.records = nil
	t.sorted = true
	return nil
}

// view returns a consistent (head, sealed) snapshot with the head sorted.
// The sealed parts are NOT retained: callers may only touch part metadata
// (Len, Span, Identity) — use retainView before decoding part records.
func (t *Table) view() (head []Record, sealed []SealedPart) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureSortedLocked()
	return t.records, t.sealed
}

// retainView returns a consistent (head, sealed) snapshot with every sealed
// part retained, so a compaction swap racing the caller can never release a
// part's backing storage mid-read. The caller must call releaseParts(sealed)
// exactly once when done with the parts' records.
func (t *Table) retainView() (head []Record, sealed []SealedPart) {
	t.mu.Lock()
	t.ensureSortedLocked()
	head, sealed = t.records, t.sealed
	for _, p := range sealed {
		p.Retain()
	}
	t.mu.Unlock()
	return head, sealed
}

// releaseParts drops the retains retainView took.
func releaseParts(sealed []SealedPart) {
	for _, p := range sealed {
		p.Release()
	}
}

// ReplaceSealedRun atomically swaps a contiguous run of sealed parts for a
// single merged part — the table side of a compaction commit. olds must be a
// non-empty contiguous run of the current sealed list (matched by identity)
// and neu must hold exactly their records; reads racing the swap see either
// the old run or the merged part, never both. The caller owns the retirement
// of the old parts (releasing their backing storage once no reader holds
// them — the retainView discipline above).
func (t *Table) ReplaceSealedRun(olds []SealedPart, neu SealedPart) error {
	if len(olds) == 0 {
		return fmt.Errorf("iupt: ReplaceSealedRun with no input parts")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := -1
	for i, p := range t.sealed {
		if p == olds[0] {
			start = i
			break
		}
	}
	if start < 0 || start+len(olds) > len(t.sealed) {
		return fmt.Errorf("iupt: ReplaceSealedRun inputs are not in the sealed list")
	}
	total := 0
	for i, p := range olds {
		if t.sealed[start+i] != p {
			return fmt.Errorf("iupt: ReplaceSealedRun inputs are not a contiguous sealed run")
		}
		total += p.Len()
	}
	if neu.Len() != total {
		return fmt.Errorf("iupt: merged part holds %d records, inputs hold %d", neu.Len(), total)
	}
	// Splice into a fresh slice: readers holding a sealed snapshot from
	// view/retainView keep iterating the old list unchanged.
	next := make([]SealedPart, 0, len(t.sealed)-len(olds)+1)
	next = append(next, t.sealed[:start]...)
	next = append(next, neu)
	next = append(next, t.sealed[start+len(olds):]...)
	t.sealed = next
	return nil
}

// WindowIdentity names the contents of one window [ts, te] of one table
// without reading them: the identities of the sealed parts whose span
// overlaps the window, in seal order, and the number of head records inside
// it. On one table, equal identities imply byte-identical window contents,
// and an identity the window has moved on from is never presented again:
//
//   - Parts changes only by gaining a part (CommitSeal) or by trading a run
//     of parts for their merge (ReplaceSealedRun). Either brings in an
//     identity the store never issued before, and a merged part's span covers
//     its inputs', so it overlaps the window if any of them did. A changed
//     Parts therefore never equals an earlier one.
//   - While Parts stands still, no head record inside the window has been
//     sealed: the seal moves the whole head into one part whose span covers
//     that record, hence overlaps the window, hence joins Parts. And the head
//     is append-only between seals. So under one Parts, Head only ever grows,
//     by exactly the records appended into the window.
//
// Two equal identities thus bracket a stretch in which nothing was appended
// into the window, sealed over it or compacted under it. The converse does
// not hold — a seal whose span straddles an untouched window changes its
// identity — which costs a cache a spurious miss, never a wrong hit.
// Identities of different tables are not comparable: part identities are
// unique within one store only.
type WindowIdentity struct {
	Parts []uint64
	Head  int
}

// Equal reports whether the two identities name the same window contents.
func (id WindowIdentity) Equal(other WindowIdentity) bool {
	return id.Head == other.Head && slices.Equal(id.Parts, other.Parts)
}

// ReadWindow is the snapshot a cached window is read from, for a reader that
// does its own materialization (internal/core's windows over slabs): it
// computes the identity of t's window [ts, te] and, unless known still names
// it, calls read with the head records inside the window and the table's
// sealed parts in seal order (read skips those whose span misses the window).
// Both come from one retainView — one hold of the table's lock — so no
// append, seal or compaction can fall between them: a cache that stores what
// read built under the identity never holds sequences under an identity that
// describes other records. Revalidating a cached window costs a binary
// search over the head and a scan of the part spans. The parts stay retained
// until read returns; read's error is ReadWindow's.
func ReadWindow(t *Table, ts, te Time, known *WindowIdentity, read func(head []Record, sealed []SealedPart) error) (id WindowIdentity, err error) {
	all, sealed := t.retainView()
	defer releaseParts(sealed)
	var head []Record
	if te >= ts {
		head = rangeSubslice(all, ts, te)
	}
	id.Head = len(head)
	for _, p := range sealed {
		if lo, hi := p.Span(); te >= ts && hi >= ts && lo <= te {
			id.Parts = append(id.Parts, p.Identity())
		}
	}
	if known != nil && known.Equal(id) {
		return id, nil
	}
	return id, read(head, sealed)
}

// readRange returns the records of [ts, te] over the sealed parts and the
// sorted head in canonical (T, arrival) order, in fresh memory. Only the
// parts whose span overlaps the window are read — each located by binary
// search and decoded onto the end of the result — then the head's records
// inside the window are appended. The sources come in arrival order, parts
// in seal order and the head last, so each one that starts before the
// records already read end is merged in by mergeTail, timestamp ties going
// to the earlier source; parts sealed in time order move nothing. A range
// only the head holds is the head's own immutable subslice, and nothing is
// copied.
func readRange(head []Record, sealed []SealedPart, ts, te Time) []Record {
	var out []Record
	for _, p := range sealed {
		if lo, hi := p.Span(); hi < ts || lo > te {
			continue
		}
		if lo, hi := p.Locate(ts, te); lo < hi {
			n := len(out)
			out = mergeTail(p.AppendRecords(out, nil, lo, hi), n)
		}
	}
	h := rangeSubslice(head, ts, te)
	if len(out) == 0 {
		return h
	}
	return mergeTail(append(out, h...), len(out))
}

// mergeTail merges the time-sorted run out[n:] into the time-sorted run
// out[:n] in place and returns the merged slice; on equal T the record of
// out[:n] goes first. Only the overlap moves — the records of out[:n] later
// than out[n] and those of out[n:] earlier than out[n-1] — in one backward
// pass, whose scratch copy of the out[n:] overlap goes past the end of out
// and is cleared after.
func mergeTail(out []Record, n int) []Record {
	if n == 0 || n == len(out) || out[n-1].T <= out[n].T {
		return out
	}
	m := len(out)
	p := searchTime(out[:n], out[n].T, true)
	q := n + searchTime(out[n:], out[n-1].T, false)
	out = append(out, out[n:q]...)
	src := out[m:]
	i, k := n-1, q-1
	for j := len(src) - 1; j >= 0; k-- {
		if i >= p && out[i].T > src[j].T {
			out[k] = out[i]
			i--
		} else {
			out[k] = src[j]
			j--
		}
	}
	clear(src)
	return out[:m]
}

// rangeSubslice returns the records with ts <= T <= te as a subslice of a
// time-sorted record slice, by binary search.
func rangeSubslice(recs []Record, ts, te Time) []Record {
	lo := searchTime(recs, ts, false)
	hi := searchTime(recs, te, true)
	if hi < lo {
		hi = lo
	}
	return recs[lo:hi]
}

// searchTime returns the first index whose record timestamp is >= bound
// (inclusive=false) or > bound (inclusive=true). Comparing against the bound
// directly (rather than bound±1) avoids Time overflow at the extremes.
func searchTime(recs []Record, bound Time, inclusive bool) int {
	lo, hi := 0, len(recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		t := recs[mid].T
		if t < bound || (inclusive && t == bound) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
