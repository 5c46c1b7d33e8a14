package parts

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"tkplq/internal/iupt"
)

// Compaction. Auto-seals produce one partition per trigger, so a long-lived
// store accumulates many small partitions and every window read pays a
// per-partition binary search + merge fan-in. Compaction merges a run of
// ADJACENT partitions (adjacent in seal order — the property that makes the
// k-way merge below reproduce the canonical (T, arrival) order exactly, so
// compaction is answer-invariant by construction) into one range-named file:
//
//	merge inputs → part-<lo>-<hi>.tkp.tmp → fsync → rename (commit point)
//	→ dir fsync → swap the live partition set → delete inputs → dir fsync
//
// The rename is the only commit point. Recovery (recoverBase) deletes any
// partition whose sequence range is contained in another's, so a crash at
// any step recovers to either the old set or the new set bit-identically —
// never a mix, never a loss. In-flight queries hold retained references to
// their snapshot of the old set (iupt.Table.retainView) and keep reading the
// old mappings until they release; the swap never blocks on readers.

// CompactResult describes one committed compaction.
type CompactResult struct {
	// Inputs is the number of partitions merged; zero means the policy
	// found nothing to do (not an error).
	Inputs int
	// Records and Bytes describe the merged output partition.
	Records int64
	Bytes   int64
	// SeqLo and SeqHi are the seal-sequence range the output covers.
	SeqLo uint64
	SeqHi uint64
}

// planRun returns the first (oldest) run [i, j) of adjacent partitions the
// size-tiered policy wants merged: every input smaller than TargetBytes,
// cumulative size within TargetBytes, at least MinInputs long. The scan is
// deterministic — same partition set, same plan.
func planRun(parts []*Partition, pol CompactionPolicy) (i, j int, ok bool) {
	minIn := pol.minInputs()
	target := pol.targetBytes()
	for start := 0; start < len(parts); start++ {
		if parts[start].SizeBytes() >= target {
			continue
		}
		sum := int64(0)
		end := start
		for end < len(parts) && parts[end].SizeBytes() < target && sum+parts[end].SizeBytes() <= target {
			sum += parts[end].SizeBytes()
			end++
		}
		if end-start >= minIn {
			return start, end, true
		}
	}
	return 0, 0, false
}

// mergeEncode renders the merge of adjacent input partitions as one
// partition file image, streaming at the column level: T/OID values and
// LOC/PROB sample runs are copied byte-for-byte from the input mappings
// (float bits round-trip exactly), OFF is rebuilt as the running prefix
// sum, and no iupt.Record is ever materialized. Ties on T resolve to the
// earliest input — inputs are adjacent seal runs, so that is precisely the
// canonical (T, arrival) interleaving a flat table would have.
func mergeEncode(inputs []*Partition) ([]byte, error) {
	var n, s int64
	for _, p := range inputs {
		n += p.n
		s += p.s
	}
	if s > math.MaxUint32 {
		return nil, fmt.Errorf("merged partition would hold %d samples, past the format's uint32 offset bound", s)
	}
	l := computeLayout(n, s)
	buf := make([]byte, l.size)
	idx := make([]int64, len(inputs))
	so := int64(0) // output sample cursor
	for out := int64(0); out < n; out++ {
		best := -1
		var bestT iupt.Time
		for k := range inputs {
			if idx[k] >= inputs[k].n {
				continue
			}
			// Strict < keeps the earliest input on ties: inputs are in seal
			// (= arrival) order, the canonical tie-break.
			if t := inputs[k].timeAt(idx[k]); best == -1 || t < bestT {
				best, bestT = k, t
			}
		}
		p, i := inputs[best], idx[best]
		binary.LittleEndian.PutUint64(buf[l.t+8*out:], uint64(bestT))
		copy(buf[l.oid+4*out:], p.data[p.l.oid+4*i:p.l.oid+4*(i+1)])
		binary.LittleEndian.PutUint32(buf[l.off+4*out:], uint32(so))
		a := int64(binary.LittleEndian.Uint32(p.data[p.l.off+4*i:]))
		b := int64(binary.LittleEndian.Uint32(p.data[p.l.off+4*(i+1):]))
		copy(buf[l.loc+4*so:], p.data[p.l.loc+4*a:p.l.loc+4*b])
		copy(buf[l.prob+8*so:], p.data[p.l.prob+8*a:p.l.prob+8*b])
		so += b - a
		idx[best]++
	}
	if so != s {
		return nil, fmt.Errorf("merged %d samples, inputs declare %d — corrupt input OFF column", so, s)
	}
	finishImage(buf, l, n, s)
	return buf, nil
}

// Compact plans and, if the policy fires, performs one compaction: the
// oldest qualifying run of adjacent small partitions is merged into one
// range-named partition, committed via tmp + fsync + rename, atomically
// swapped into the live set, and the inputs are deleted. A zero-Inputs
// result means the policy found nothing to merge. Compactions serialize
// with each other; Compact is safe to run concurrently with ingest, seals
// and queries — reads racing the swap keep their retained snapshot of the
// old set and the old mappings are released when the last reader finishes.
// Failures past the rename commit point poison the store, exactly as a
// post-commit Seal failure does.
func (s *Store) Compact() (CompactResult, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	i, j, ok := planRun(s.parts, s.opts.Compact)
	var inputs []*Partition
	if ok {
		inputs = append(inputs, s.parts[i:j]...)
		for _, p := range inputs {
			p.Retain()
		}
	}
	s.mu.Unlock()
	if !ok {
		return CompactResult{}, nil
	}
	defer func() {
		for _, p := range inputs {
			p.Release()
		}
	}()

	buf, err := mergeEncode(inputs)
	if err != nil {
		return CompactResult{}, fmt.Errorf("parts: compact: %w", err)
	}
	lo, _ := inputs[0].SeqRange()
	_, hi := inputs[len(inputs)-1].SeqRange()
	name := partRangeName(lo, hi)
	committed, err := s.commitPartitionBytes(s.dir, name, buf)
	if err != nil {
		err = fmt.Errorf("parts: compact: %w", err)
		if committed {
			// The rename succeeded but the dir fsync failed: the commit's
			// durability is unknown. The inputs are still on disk, so
			// recovery serves a consistent set either way — but retiring
			// inputs on top of an unsynced commit could strand both sets.
			// Mirror Seal's discipline and refuse further work.
			s.wal.Poison(err)
		}
		return CompactResult{}, err
	}
	neu, err := OpenFile(filepath.Join(s.dir, name), s.opts.Verify)
	if err != nil {
		err = fmt.Errorf("parts: compact committed %s but could not map it: %w", name, err)
		s.wal.Poison(err)
		return CompactResult{}, err
	}
	neu.seqLo, neu.seqHi = lo, hi
	olds := make([]iupt.SealedPart, len(inputs))
	for k, p := range inputs {
		olds[k] = p
	}
	if err := s.table.ReplaceSealedRun(olds, neu); err != nil {
		neu.Close()
		err = fmt.Errorf("parts: compact committed %s but the table refused it: %w", name, err)
		s.wal.Poison(err)
		return CompactResult{}, err
	}
	// Mirror the swap in s.parts. Only Seal appends (at the tail) between
	// our plan and here — compactMu excludes other compactions — so the run
	// indices are still valid.
	s.mu.Lock()
	next := make([]*Partition, 0, len(s.parts)-len(inputs)+1)
	next = append(next, s.parts[:i]...)
	next = append(next, neu)
	next = append(next, s.parts[j:]...)
	s.parts = next
	s.compactions++
	s.compacted += int64(len(inputs))
	s.mu.Unlock()
	res := CompactResult{
		Inputs:  len(inputs),
		Records: int64(neu.Len()),
		Bytes:   neu.SizeBytes(),
		SeqLo:   lo,
		SeqHi:   hi,
	}
	// Retire the inputs: drop the owner references (in-flight readers keep
	// the old mappings alive until they release) and delete the files. The
	// range file is durably committed, so a crash or failure between
	// deletes just leaves subsumed inputs for recovery to delete — loud,
	// not poisonous.
	var firstErr error
	for _, p := range inputs {
		path := p.Path()
		_ = p.Close()
		if err := removeFile(path); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("parts: compact: deleting input %s: %w", path, err)
		}
	}
	if firstErr != nil {
		return res, firstErr
	}
	if err := commitDirSync(s.dir); err != nil {
		return res, fmt.Errorf("parts: compact: %w", err)
	}
	return res, nil
}

// compactLoop is the background compactor: every interval it runs one
// policy-driven compaction. Errors surface through the store's poison
// state (further ingests fail loudly); the loop itself keeps ticking until
// Close.
func (s *Store) compactLoop(ivl time.Duration) {
	defer s.bgDone.Done()
	t := time.NewTicker(ivl)
	defer t.Stop()
	for {
		select {
		case <-s.stopBg:
			return
		case <-t.C:
			_, _ = s.Compact()
		}
	}
}
