package parts

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"tkplq/internal/iupt"
	"tkplq/internal/wal"
)

// Data-dir protocol. A data directory holds the sealed partitions plus the
// head's write-ahead log (internal/wal):
//
//	data/
//	  part-00000001-00000002.tkp  // compacted: seals 1..2 merged
//	  part-00000003.tkp           // sealed partitions, one per seal
//	  wal-00000003.log    // the head: batches accepted since the last seal
//	  LOCK
//
// The active segment's sequence equals the newest partition's. Sealing at
// sequence N+1 commits part-(N+1).tkp (tmp + fsync + rename + dir fsync),
// then rotates the log: wal-(N+1).log is created and wal-N.log deleted —
// its frames all live in the new partition. Recovery maps every partition
// in sequence order, drops log segments older than the newest partition
// (subsumed), and replays the rest into the head — work proportional to
// the WAL tail, never the table. A snapshot-N.bin newer than every
// partition is a legacy flat directory's table, which this package does not
// read: Open refuses the directory untouched and names the two conversions
// (docs/OPERATIONS.md). An older one is a leftover of a migration an earlier
// build committed, and is removed.
//
// Compaction (compact.go) merges a run of adjacent partitions into one
// range-named file part-<lo>-<hi>.tkp covering seal sequences [lo, hi]; the
// rename is the commit point, after which the inputs are deleted. Recovery
// drops (and deletes) any partition whose sequence range is contained in
// another's — so a crash anywhere in a compaction recovers to either the
// old set or the new set, never a mix — and refuses partially-overlapping
// ranges loudly. The WAL is never involved: a compaction rewrites only
// sealed bytes, in the same canonical order, so it is answer-invariant.

var (
	partRE = regexp.MustCompile(`^part-(\d{8})(?:-(\d{8}))?\.tkp$`)
	snapRE = regexp.MustCompile(`^snapshot-(\d{8})\.bin$`)
)

// Filesystem indirections, so the crash-point fault-injection tests can fail
// each step of a partition commit in turn. commitDirSync failures after a
// rename are the poison path (the commit may not be durable yet).
var (
	commitDirSync = wal.SyncDir
	renameFile    = os.Rename
	removeFile    = os.Remove
	syncFile      = func(f *os.File) error { return f.Sync() }
	writeFile     = func(f *os.File, b []byte) (int, error) { return f.Write(b) }
)

func partName(seq uint64) string { return fmt.Sprintf("part-%08d.tkp", seq) }

// ParsePartName reports whether name is a sealed partition's file name — plain
// or a compacted range — and the seal sequences [lo, hi] it covers.
func ParsePartName(name string) (lo, hi uint64, ok bool) {
	m := partRE.FindStringSubmatch(name)
	if m == nil {
		return 0, 0, false
	}
	lo = parseSeq(m[1])
	hi = lo
	if m[2] != "" {
		hi = parseSeq(m[2])
	}
	return lo, hi, true
}

// partRangeName names a compacted partition covering seal sequences
// [lo, hi]. Single-sequence partitions keep the short name.
func partRangeName(lo, hi uint64) string {
	if lo == hi {
		return partName(lo)
	}
	return fmt.Sprintf("part-%08d-%08d.tkp", lo, hi)
}

// Options parametrizes Open.
type Options struct {
	// Dir is the data directory; created if missing. Required.
	Dir string
	// Policy and SyncEvery configure the WAL exactly as in wal.Options.
	Policy    wal.SyncPolicy
	SyncEvery time.Duration
	// Verify selects how much of each sealed partition Open checks
	// (default VerifyFull).
	Verify VerifyMode
	// Compact configures compaction (compact.go). The zero value applies
	// the documented defaults and leaves the background loop off; Compact
	// remains callable manually either way.
	Compact CompactionPolicy
	// KeepSegments retains that many rotated-out WAL segments for
	// replication catch-up (wal.Options.KeepSegments).
	KeepSegments int
}

// CompactionPolicy tunes the size-tiered compaction planner.
type CompactionPolicy struct {
	// MinInputs is the smallest run of adjacent small partitions worth
	// merging (default 4, minimum 2).
	MinInputs int
	// TargetBytes caps the merged output: partitions at or above it are
	// never inputs, and a run stops growing before exceeding it
	// (default 64 MiB).
	TargetBytes int64
	// Interval enables the background loop: every Interval the store plans
	// and, if the policy fires, runs one compaction. Zero leaves background
	// compaction off (manual Compact / POST /v1/compact still work).
	Interval time.Duration
}

const (
	defaultCompactMinInputs   = 4
	defaultCompactTargetBytes = 64 << 20
)

func (p CompactionPolicy) minInputs() int {
	if p.MinInputs >= 2 {
		return p.MinInputs
	}
	if p.MinInputs != 0 {
		return 2
	}
	return defaultCompactMinInputs
}

func (p CompactionPolicy) targetBytes() int64 {
	if p.TargetBytes > 0 {
		return p.TargetBytes
	}
	return defaultCompactTargetBytes
}

// Stats is a snapshot of a partitioned store's counters.
type Stats struct {
	// Seq is the newest committed seal sequence.
	Seq uint64
	// Partitions and SealedRecords/SealedBytes describe the sealed set.
	Partitions    int
	SealedRecords int64
	SealedBytes   int64
	// Seals counts seals committed by this store (this process).
	Seals int64
	// Compactions counts compactions committed by this store, and
	// CompactedPartitions the input partitions they consumed.
	Compactions         int64
	CompactedPartitions int64
	// MaterializedRecords counts records decoded out of sealed partitions
	// since Open, summed over partitions — the observable behind the
	// "window queries read only overlapping partitions" guarantee.
	MaterializedRecords int64
	// WAL carries the head log's counters. After Open,
	// WAL.ReplayedRecords is the entire recovery cost beyond mapping:
	// partitions are opened without decoding a single record.
	WAL wal.Stats
}

// Store is the durable store: a WAL-backed mutable head plus the sealed
// partition set, over one locked data directory. Callers must serialize
// AppendBatch with the table apply, and Seal with both (tkplq.System's
// ingest lock does).
type Store struct {
	dir   string
	opts  Options
	wal   *wal.Store
	table *iupt.Table

	// mu guards the partition bookkeeping below. Seal is serialized with
	// ingest by the caller, but Stats/Partitions are probed concurrently by
	// the server's stats handler and by compactions.
	mu          sync.Mutex
	parts       []*Partition
	seals       int64
	compactions int64
	compacted   int64 // input partitions consumed by compactions

	// compactMu serializes compactions (manual and background).
	compactMu sync.Mutex
	stopBg    chan struct{}
	bgDone    sync.WaitGroup
}

// Open opens (or initializes) a partitioned data directory: it maps every
// sealed partition (verified per opts.Verify — a corrupt partition fails
// Open loudly), replays the surviving WAL tail into the head, and returns
// the store plus the backed table. The table answers queries
// bit-identically to an in-memory table over the same record history.
func Open(opts Options) (*Store, *iupt.Table, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("parts: Options.Dir is required")
	}
	s := &Store{dir: opts.Dir, opts: opts}
	w, table, err := wal.Open(wal.Options{
		Dir:          opts.Dir,
		Policy:       opts.Policy,
		SyncEvery:    opts.SyncEvery,
		Base:         s.recoverBase,
		KeepSegments: opts.KeepSegments,
	})
	if err != nil {
		s.closeParts()
		return nil, nil, err
	}
	s.wal = w
	s.table = table
	if opts.Compact.Interval > 0 {
		s.stopBg = make(chan struct{})
		s.bgDone.Add(1)
		go s.compactLoop(opts.Compact.Interval)
	}
	return s, table, nil
}

// recoverBase is the wal.Options.Base hook: it runs under the directory
// lock and reconstructs the sealed set, returning the backed table and the
// newest partition sequence.
func (s *Store) recoverBase(dir string) (*iupt.Table, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("parts: %w", err)
	}
	type partFile struct {
		lo, hi uint64
		path   string
	}
	var found []partFile
	var snapPaths []string
	var snapSeq, baseSeq uint64
	for _, e := range entries {
		name := e.Name()
		if lo, hi, ok := ParsePartName(name); ok {
			if hi < lo {
				return nil, 0, fmt.Errorf("parts: %s: inverted sequence range", name)
			}
			found = append(found, partFile{lo: lo, hi: hi, path: filepath.Join(dir, name)})
			baseSeq = max(baseSeq, hi)
		} else if m := snapRE.FindStringSubmatch(name); m != nil {
			snapPaths = append(snapPaths, filepath.Join(dir, name))
			snapSeq = max(snapSeq, parseSeq(m[1]))
		}
	}

	// A flat snapshot newer than every partition holds records no partition
	// has: replaying its log segment alone would serve the tail as if it
	// were the whole table. Refuse before touching a file. An older one was
	// left behind by a crash after an earlier build's migration committed.
	if snapSeq > baseSeq {
		snap := filepath.Join(dir, fmt.Sprintf("snapshot-%08d.bin", snapSeq))
		return nil, 0, fmt.Errorf("parts: %s is a legacy flat snapshot newer than every partition in %s, and this build does not read that layout. "+
			"Either open the directory once with a build up to 3b3e4c1, which migrates it in place, "+
			"or seed a new directory from the snapshot with `tkplqd -iupt %s -format bin -data-dir NEW`, which drops the log tail",
			snap, dir, snap)
	}
	for _, path := range snapPaths {
		_ = os.Remove(path)
	}

	// Drop (and delete) partitions whose sequence range is contained in
	// another's: they are compaction inputs whose merged output committed
	// before the crash could delete them. This is what makes the compaction
	// commit atomic across crashes — either the range file exists and the
	// inputs are (re)deleted here, or it doesn't and the inputs serve.
	live := make([]partFile, 0, len(found))
	for _, pf := range found {
		subsumed := false
		for _, other := range found {
			if other.path == pf.path {
				continue
			}
			if other.lo <= pf.lo && pf.hi <= other.hi {
				subsumed = true
				break
			}
		}
		if subsumed {
			_ = removeFile(pf.path)
			continue
		}
		live = append(live, pf)
	}
	found = live
	sort.Slice(found, func(i, j int) bool { return found[i].lo < found[j].lo })
	for i, pf := range found {
		if i > 0 && pf.lo <= found[i-1].hi {
			// Partially overlapping ranges can only come from outside
			// interference; serving either would double-count records.
			return nil, 0, fmt.Errorf("parts: partitions %s and %s overlap in sequence range — corrupt data directory", found[i-1].path, pf.path)
		}
	}

	// Map the sealed set in sequence order — seal order IS arrival order,
	// the property the canonical k-way merge stands on.
	sealed := make([]iupt.SealedPart, 0, len(found))
	for _, pf := range found {
		p, err := OpenFile(pf.path, s.opts.Verify)
		if err != nil {
			s.closeParts()
			return nil, 0, err
		}
		p.seqLo, p.seqHi = pf.lo, pf.hi
		s.parts = append(s.parts, p)
		sealed = append(sealed, p)
	}
	return iupt.NewBackedTable(sealed), baseSeq, nil
}

// commitPartitionFile writes recs as part-<seq>.tkp atomically:
// tmp + fsync + rename + dir fsync. The rename is the commit point:
// committed reports whether it succeeded, i.e. whether the partition is
// visible to recovery even when err is non-nil (a failed trailing dir
// fsync). After a nil return the partition is durable.
func (s *Store) commitPartitionFile(dir string, seq uint64, recs []iupt.Record) (committed bool, err error) {
	buf, err := Encode(recs)
	if err != nil {
		return false, err
	}
	return s.commitPartitionBytes(dir, partName(seq), buf)
}

// commitPartitionBytes writes a ready-made partition image to dir/name via
// the tmp + fsync + rename + dir fsync protocol. See commitPartitionFile.
func (s *Store) commitPartitionBytes(dir, name string, buf []byte) (committed bool, err error) {
	final := filepath.Join(dir, name)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return false, err
	}
	if _, err := writeFile(f, buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return false, err
	}
	if err := syncFile(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return false, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return false, err
	}
	if err := renameFile(tmp, final); err != nil {
		os.Remove(tmp)
		return false, err
	}
	return true, commitDirSync(dir)
}

// parseSeq converts a zero-padded decimal capture; the regexp guarantees it
// parses.
func parseSeq(s string) uint64 {
	n, _ := strconv.ParseUint(s, 10, 64)
	return n
}

// AppendBatch durably appends one ingest batch to the head WAL; semantics
// are wal.Store.AppendBatch's.
func (s *Store) AppendBatch(recs []iupt.Record) error { return s.wal.AppendBatch(recs) }

// Seal freezes the head into a new sealed partition: the head records are
// committed as part-(Seq+1).tkp, the table atomically swaps them for the
// mapped partition, and the WAL rotates (truncating the log past the seal).
// An empty head is a no-op. The caller must block ingest across the call —
// tkplq.System.Snapshot holds its ingest lock.
func (s *Store) Seal() error {
	head := s.table.HeadRecords()
	if len(head) == 0 {
		return nil
	}
	newSeq := s.wal.Seq() + 1
	committed, err := s.commitPartitionFile(s.dir, newSeq, head)
	if err != nil {
		err = fmt.Errorf("parts: seal: %w", err)
		if committed {
			// The rename succeeded, so recovery already treats the current
			// segment as subsumed by part-newSeq even though the dir fsync
			// failed; refuse further appends.
			s.wal.Poison(err)
		}
		return err
	}
	// The rename above is the commit point: recovery now treats the current
	// segment as subsumed. Any failure before the rotation completes must
	// poison the store — appending more acknowledged batches to the old
	// segment would lose them on restart.
	p, err := OpenFile(filepath.Join(s.dir, partName(newSeq)), s.opts.Verify)
	if err != nil {
		err = fmt.Errorf("parts: seal committed %s but could not map it: %w", partName(newSeq), err)
		s.wal.Poison(err)
		return err
	}
	p.seqLo, p.seqHi = newSeq, newSeq
	if err := s.table.CommitSeal(p, len(head)); err != nil {
		p.Close()
		err = fmt.Errorf("parts: seal committed %s but the table refused it: %w", partName(newSeq), err)
		s.wal.Poison(err)
		return err
	}
	// The table now serves the sealed view; parts[] mirrors it for stats.
	s.mu.Lock()
	s.parts = append(s.parts, p)
	s.seals++
	s.mu.Unlock()
	if _, err := s.wal.RotateAfterCommit(); err != nil {
		return fmt.Errorf("parts: seal: %w", err)
	}
	return nil
}

// RecordsSinceSnapshot reports the records appended to the head since the
// last seal, lock-free — the server's auto-seal trigger probes it per
// ingest.
func (s *Store) RecordsSinceSnapshot() int64 { return s.wal.RecordsSinceSnapshot() }

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Partitions returns the sealed partitions, in seal order. The slice is a
// copy; the partitions are live (shared with the serving table).
func (s *Store) Partitions() []*Partition {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Partition(nil), s.parts...)
}

// Log exposes the head WAL for replication: internal/repl tails its
// committed segment bytes and watches its append/rotate signal. Callers
// must not append or rotate through it.
func (s *Store) Log() *wal.Store { return s.wal }

// Failed returns the store's poison error, or nil while it accepts writes
// (the readiness probe behind /readyz).
func (s *Store) Failed() error { return s.wal.Failed() }

// ReplicationView returns a mutually-consistent (sealed set, WAL position)
// pair for a replication session: every returned partition's range is ≤ seq,
// and the sealed set is complete up to seq — the segment at seq holds
// exactly the frames appended after the newest returned partition. Seal
// commits the partition before rotating the log, so the loop retries the
// snapshot until neither half moved between the reads.
func (s *Store) ReplicationView() (ps []*Partition, seq uint64, off int64) {
	for i := 0; ; i++ {
		seq, _ = s.wal.Position()
		ps = s.Partitions()
		var maxHi uint64
		for _, p := range ps {
			if _, hi := p.SeqRange(); hi > maxHi {
				maxHi = hi
			}
		}
		seq2, off2 := s.wal.Position()
		if maxHi <= seq && seq2 == seq {
			return ps, seq, off2
		}
		if i > 1000 {
			// Seals are rare (one per rotation); if the view won't settle
			// something is deeply wrong — return the latest rather than spin.
			return ps, seq2, off2
		}
		time.Sleep(time.Millisecond)
	}
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		WAL:                 s.wal.Stats(),
		Seals:               s.seals,
		Compactions:         s.compactions,
		CompactedPartitions: s.compacted,
	}
	st.Seq = st.WAL.SnapshotSeq
	for _, p := range s.parts {
		st.Partitions++
		st.SealedRecords += int64(p.Len())
		st.SealedBytes += p.SizeBytes()
		st.MaterializedRecords += p.Materialized()
	}
	return st
}

func (s *Store) closeParts() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.parts {
		_ = p.Close()
	}
	s.parts = nil
}

// Close stops the background compactor, fsyncs and closes the head WAL and
// releases the partition mappings. The backed table must not be queried
// after Close — its sealed records live in the mappings.
func (s *Store) Close() error {
	if s.stopBg != nil {
		close(s.stopBg)
		s.bgDone.Wait()
		s.stopBg = nil
	}
	var err error
	if s.wal != nil {
		err = s.wal.Close()
	}
	s.closeParts()
	return err
}
