// Package wal implements the write-ahead log under the live IUPT's mutable
// head: an append-only, CRC-framed, fsync-batched log of ingest batches that
// replays on top of a base artifact its caller owns (internal/parts' sealed
// partitions).
//
// A Store owns the log segments of one locked data directory, named by a
// monotonically increasing rotation sequence:
//
//	data/
//	  wal-00000003.log        // batches accepted after base artifact 3
//
// Every accepted ingest batch is appended atomically as one CRC32C-framed
// record before it is applied to the in-memory table (write-ahead order).
// Once the caller has durably committed an artifact that contains every
// frame of the active segment, RotateAfterCommit swings the log onto a fresh
// segment and deletes the subsumed one — so the log is truncated at every
// commit and recovery cost is bounded by the commit cadence.
//
// Open recovers the directory deterministically: it asks Options.Base for
// the base table and its sequence, drops segments the base subsumes, replays
// the surviving segment frame by frame, and tolerates a torn final frame (a
// crash mid-append) by truncating the segment back to the last complete
// batch. Because replay re-applies batches in append order, a recovered
// table answers queries bit-identically to the table that never restarted.
//
// The on-disk byte layouts are specified in docs/FORMATS.md.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tkplq/internal/iupt"
)

// SyncPolicy selects when appended frames are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs the segment after every appended batch: an
	// acknowledged ingest survives an immediate machine crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval batches fsyncs on a background timer (Options.SyncEvery):
	// much higher ingest throughput, at the cost of losing at most the last
	// interval's batches on a machine crash. A process crash (kill -9) loses
	// nothing either way — the OS still holds the written pages.
	SyncInterval
)

// DefaultSyncEvery is the fsync cadence when Options.SyncEvery is zero and
// the policy is SyncInterval.
const DefaultSyncEvery = 100 * time.Millisecond

// Options parametrizes Open.
type Options struct {
	// Dir is the data directory; created if missing. Required.
	Dir string
	// Policy selects the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// SyncEvery is the background fsync cadence for SyncInterval
	// (DefaultSyncEvery when zero).
	SyncEvery time.Duration
	// Base reconstructs the state the log replays on top of (internal/parts
	// passes its sealed-partition set). The hook runs during Open, after the
	// directory lock is acquired, and returns the base table plus the
	// sequence number of the newest base artifact: log segments with an
	// older sequence are subsumed by the base and dropped; the rest replay
	// into the returned table. Every file in the directory other than the
	// log segments is the hook's to read and write. A nil Base means an
	// empty table at sequence 0 — a bare log.
	Base func(dir string) (*iupt.Table, uint64, error)
	// KeepSegments retains that many rotated-out segments on disk instead
	// of deleting them at rotation (0 = delete immediately, the historical
	// behavior). Retained segments are subsumed by committed artifacts and
	// are never replayed on Open; they exist so a replication source can
	// stream recent history to a briefly-disconnected follower without a
	// full re-bootstrap.
	KeepSegments int
}

// Stats is a snapshot of a Store's lifetime counters. Recovered* and
// Replayed*/Torn* describe the Open that created the store; the rest count
// work performed since.
type Stats struct {
	// SnapshotSeq is the sequence number of the newest committed base
	// artifact (0 = none yet): the base's at Open, then the latest rotation.
	SnapshotSeq uint64
	// Frames, Records and Bytes count appended batches, their records and
	// their on-disk frame bytes.
	Frames  int64
	Records int64
	Bytes   int64
	// Fsyncs counts segment fsyncs (per append under SyncAlways, per timer
	// tick with pending writes under SyncInterval, plus one on Close).
	Fsyncs int64
	// Snapshots counts rotations (one per artifact the caller committed)
	// performed by this store.
	Snapshots int64
	// SinceSnapshot counts records appended since the last rotation (or
	// Open), the signal behind the automatic seal cadence.
	SinceSnapshot int64
	// RecoveredRecords is the table size produced by Open (base records
	// plus replayed WAL records).
	RecoveredRecords int64
	// ReplayedFrames counts complete WAL frames applied during Open.
	ReplayedFrames int64
	// ReplayedRecords counts records applied from WAL frames during Open —
	// the work recovery actually performed beyond mapping the base: restart
	// does work proportional to the WAL tail, not the table.
	ReplayedRecords int64
	// TornBytes counts trailing bytes dropped (and truncated away) during
	// Open: an incomplete final frame, or everything from the first
	// invalid frame on.
	TornBytes int64
	// CorruptFrames counts complete frames that failed their CRC during
	// Open. Replay stops and truncates there like a torn write (a machine
	// crash under SyncInterval can lose an unfsynced page out of order),
	// but a nonzero count on a log whose frames were all fsynced means bit
	// rot — alert on it.
	CorruptFrames int64
}

const (
	segMagic   = "TKWL"
	segVersion = uint16(1)
	segHdrLen  = 6 // magic + version

	frameHdrLen = 8       // payload length (uint32) + CRC32C (uint32)
	maxFrameLen = 1 << 26 // 64 MiB sanity bound on one batch
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errShortSegment marks a segment file shorter than its own header — the
// signature of a crash during segment creation, tolerated (dropped and
// recreated) when it is the final segment.
var errShortSegment = errors.New("segment shorter than its header")

var segmentRE = regexp.MustCompile(`^wal-(\d{8})\.log$`)

// SegmentName returns the file name of log segment seq.
func SegmentName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }

// ParseSegmentName reports whether name is a log segment's file name, and of
// which sequence.
func ParseSegmentName(name string) (seq uint64, ok bool) {
	m := segmentRE.FindStringSubmatch(name)
	if m == nil {
		return 0, false
	}
	seq, _ = strconv.ParseUint(m[1], 10, 64) // eight digits always parse
	return seq, true
}

// Store is a durable write-ahead log over one data directory. It is safe for
// concurrent use, but callers that pair it with a live table (tkplq.System
// does) must serialize AppendBatch with the table apply and the
// commit+RotateAfterCommit pair with both — otherwise the log order can
// diverge from the table order and recovery would replay a different
// history.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	seg    *os.File
	lock   *os.File // flock'd lock file guarding the directory
	seq    uint64   // current base-artifact/segment sequence
	segOff int64    // committed byte length of the active segment
	dirty  bool     // segment has writes not yet fsynced
	closed bool
	failed error // poisoned: rotation failed past an artifact's commit point
	stats  Stats

	// watchers are poked (non-blocking) after every appended frame and
	// every rotation so a replication source tailing the segment files can
	// sleep until there is new committed log to read.
	watchers  map[uint64]chan struct{}
	nextWatch uint64

	// sinceSnap mirrors stats.SinceSnapshot as an atomic so hot paths (the
	// server probes it per ingest) can read it without taking mu.
	sinceSnap atomic.Int64

	stop chan struct{} // interval syncer shutdown
	done chan struct{}
}

// Open opens (or initializes) the data directory and recovers its contents:
// the base table first (Options.Base), then the surviving log segment frame
// by frame on top of it. A torn final frame — the signature of a crash
// mid-append — is dropped and truncated away (Stats.TornBytes); a corrupt
// frame anywhere else is an error. Stale files from interrupted commits
// (segments the base subsumes, *.tmp leftovers) are removed.
func Open(opts Options) (*Store, *iupt.Table, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	// One store per directory: a second process opening the same data dir
	// would interleave frames and clobber the other's partitions. The flock
	// is released automatically when the process dies, so a kill -9 never
	// wedges the directory.
	lock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	ok := false
	defer func() {
		if !ok {
			unlockDir(lock)
		}
	}()

	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	segments := map[uint64]string{}
	for _, e := range entries {
		name := e.Name()
		switch {
		case filepath.Ext(name) == ".tmp":
			// Leftover of an interrupted artifact write; never committed.
			_ = os.Remove(filepath.Join(opts.Dir, name))
		default:
			if seq, ok := ParseSegmentName(name); ok {
				segments[seq] = filepath.Join(opts.Dir, name)
			}
		}
	}

	s := &Store{dir: opts.Dir, opts: opts, lock: lock}

	// Recover the base state: whatever the Base hook reconstructs (sealed
	// partitions). baseSeq is the cut every surviving log frame must
	// postdate.
	table := iupt.NewTable()
	var baseSeq uint64
	if opts.Base != nil {
		table, baseSeq, err = opts.Base(opts.Dir)
		if err != nil {
			return nil, nil, err
		}
	}
	// Segments older than the base are fully contained in it: a crash
	// between artifact commit and cleanup leaves them behind. Drop the ones
	// outside the replication retention window; retained ones stay on disk
	// for catch-up streaming but are never replayed.
	for seq, path := range segments {
		if seq < baseSeq && baseSeq-seq > uint64(opts.KeepSegments) {
			_ = os.Remove(path)
			delete(segments, seq)
		}
	}

	// Replay surviving segments from the base cut on, in sequence order.
	// Normally exactly one (seq == baseSeq) exists; tolerate a torn tail
	// only in the last.
	var segSeqs []uint64
	for seq := range segments {
		if seq >= baseSeq {
			segSeqs = append(segSeqs, seq)
		}
	}
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })
	s.seq = baseSeq
	for i, seq := range segSeqs {
		last := i == len(segSeqs)-1
		frames, records, validOff, torn, corrupt, err := replaySegment(segments[seq], table, last)
		s.stats.CorruptFrames += corrupt
		if errors.Is(err, errShortSegment) && last {
			// A crash tore the segment's own creation: it holds no frames.
			// Drop it; the active-segment path below recreates it cleanly.
			s.stats.TornBytes += torn
			_ = os.Remove(segments[seq])
			delete(segments, seq)
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("wal: segment %s: %w", segments[seq], err)
		}
		s.stats.ReplayedFrames += frames
		s.stats.ReplayedRecords += records
		if torn > 0 {
			s.stats.TornBytes += torn
			if err := os.Truncate(segments[seq], validOff); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn segment %s: %w", segments[seq], err)
			}
		}
		if seq > s.seq {
			s.seq = seq
		}
	}
	s.stats.RecoveredRecords = int64(table.Len())
	s.stats.SnapshotSeq = baseSeq

	// Open (or create) the active segment for appending.
	segPath := filepath.Join(opts.Dir, SegmentName(s.seq))
	if _, ok := segments[s.seq]; ok {
		s.seg, err = os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		fi, err := s.seg.Stat()
		if err != nil {
			s.seg.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		s.segOff = fi.Size()
	} else {
		if s.seg, err = createSegment(segPath); err != nil {
			return nil, nil, err
		}
		if err := syncDir(opts.Dir); err != nil {
			return nil, nil, err
		}
		s.segOff = segHdrLen
	}

	if opts.Policy == SyncInterval {
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go s.syncLoop()
	}
	ok = true
	return s, table, nil
}

// createSegment creates an empty log segment with its header, fsynced.
func createSegment(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	hdr := make([]byte, 0, segHdrLen)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, segVersion)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	return f, nil
}

// SyncDir fsyncs a directory so renames and creates within it are durable —
// the commit step of every tmp+fsync+rename in this package, exported for
// internal/parts' partition commits.
func SyncDir(dir string) error { return syncDir(dir) }

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync %s: %w", dir, err)
	}
	return nil
}

// AppendBatch durably appends one ingest batch as a single atomic frame.
// Under SyncAlways the frame is fsynced before AppendBatch returns; under
// SyncInterval it is fsynced by the background timer. An empty batch is a
// no-op; a batch whose encoded payload exceeds the 64 MiB frame bound is
// rejected up front (replay enforces the same bound, so an oversized frame
// could never be recovered — split huge bulk loads into smaller batches).
func (s *Store) AppendBatch(recs []iupt.Record) error {
	if len(recs) == 0 {
		return nil
	}
	frame, err := encodeFrame(recs)
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	if _, err := s.seg.Write(frame); err != nil {
		// The frame may be partially on disk; appending more after it would
		// bury acknowledged batches behind garbage that replay stops at.
		s.failed = fmt.Errorf("wal: append wrote a partial frame: %w", err)
		return s.failed
	}
	s.segOff += int64(len(frame))
	s.stats.Frames++
	s.stats.Records += int64(len(recs))
	s.stats.SinceSnapshot += int64(len(recs))
	s.sinceSnap.Add(int64(len(recs)))
	s.stats.Bytes += int64(len(frame))
	if s.opts.Policy == SyncAlways {
		if err := s.seg.Sync(); err != nil {
			// A failed fsync marks the dirty pages clean in the kernel; a
			// later "successful" Sync would vouch for a frame that never
			// reached disk. Same rule as syncLoop: poison.
			s.failed = fmt.Errorf("wal: fsync failed: %w", err)
			return s.failed
		}
		s.stats.Fsyncs++
	} else {
		s.dirty = true
	}
	s.notifyLocked()
	return nil
}

// rotateLocked swings the log onto a fresh segment at newSeq and deletes the
// superseded one. The caller must have durably committed an artifact
// (a sealed partition) at newSeq that subsumes every frame of the
// current segment: recovery will drop segments older than newSeq, so a
// rotation FAILURE here must poison the store — continuing to append to the
// old segment would silently lose acknowledged batches on restart. Callers
// must hold s.mu.
func (s *Store) rotateLocked(newSeq uint64) error {
	seg, err := createSegment(filepath.Join(s.dir, SegmentName(newSeq)))
	if err != nil {
		s.failed = fmt.Errorf("wal: rotation failed after commit of %d: %w", newSeq, err)
		return s.failed
	}
	old := s.seg
	s.seg = seg
	s.seq = newSeq
	s.segOff = segHdrLen
	s.dirty = false
	s.stats.Snapshots++
	s.stats.SnapshotSeq = newSeq
	s.stats.SinceSnapshot = 0
	s.sinceSnap.Store(0)
	// Cleanup is best-effort: rotated-out segments are subsumed by artifact
	// newSeq and removed by the next Open. With KeepSegments > 0 the most
	// recent ones stay behind for replication catch-up; in steady state one
	// segment leaves the window per rotation.
	_ = old.Close()
	if drop := int64(newSeq) - int64(s.opts.KeepSegments) - 1; drop >= 0 {
		_ = os.Remove(filepath.Join(s.dir, SegmentName(uint64(drop))))
	}
	s.notifyLocked()
	if err := syncDir(s.dir); err != nil {
		// The new segment's dirent may not be durable: a machine crash
		// could recover artifact newSeq without the segment, losing frames
		// appended meanwhile. Refuse further appends.
		s.failed = fmt.Errorf("wal: rotation failed after commit of %d: %w", newSeq, err)
		return s.failed
	}
	return nil
}

// RotateAfterCommit rotates the log onto a fresh segment at sequence Seq()+1
// and deletes the superseded segment. The caller
// must first have durably committed an external artifact at that sequence
// that contains every record of the current segment — internal/parts calls
// this after renaming a sealed partition into place — and must serialize the
// commit+rotate pair with AppendBatch (the System's ingest lock does).
// Returns the new sequence. On error the store is poisoned.
func (s *Store) RotateAfterCommit() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return 0, err
	}
	newSeq := s.seq + 1
	if err := s.rotateLocked(newSeq); err != nil {
		return 0, err
	}
	return newSeq, nil
}

// Seq returns the current rotation sequence: the suffix of the active log
// segment and of the newest committed base artifact. The next commit
// (RotateAfterCommit) uses Seq()+1.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Poison marks the store failed: every later AppendBatch and
// RotateAfterCommit returns err until a restart recovers the directory.
// For callers layering their own commit protocol on the log (internal/parts):
// once an external artifact at Seq()+1 is committed, a failure before
// RotateAfterCommit succeeds strands the current segment — recovery drops it
// as subsumed — so the only safe continuation is no continuation.
func (s *Store) Poison(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed == nil && !s.closed {
		s.failed = err
	}
}

// usableLocked reports why the store cannot accept writes (closed, or
// poisoned by a failed rotation). Callers must hold s.mu.
func (s *Store) usableLocked() error {
	if s.closed {
		return errors.New("wal: store is closed")
	}
	if s.failed != nil {
		return fmt.Errorf("wal: store is failed (restart to recover): %w", s.failed)
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// RecordsSinceSnapshot reports the records appended since the last
// rotation without taking the store lock — cheap enough to probe on every
// ingest (the server's SnapshotEvery trigger does).
func (s *Store) RecordsSinceSnapshot() int64 { return s.sinceSnap.Load() }

// syncLoop is the SyncInterval background fsync timer.
func (s *Store) syncLoop() {
	defer close(s.done)
	t := time.NewTicker(s.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed && s.failed == nil && s.dirty {
				if err := s.seg.Sync(); err != nil {
					// A failed fsync marks the dirty pages clean in the
					// kernel: a later "successful" Sync would report
					// durability for frames that never hit disk. Poison the
					// store so ingest fails loudly instead of silently
					// widening the loss window.
					s.failed = fmt.Errorf("wal: background fsync failed: %w", err)
				} else {
					s.dirty = false
					s.stats.Fsyncs++
				}
			}
			s.mu.Unlock()
		}
	}
}

// Close fsyncs and closes the active segment. Close is idempotent; after
// Close, AppendBatch and RotateAfterCommit fail.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stop := s.stop
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-s.done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if serr := s.seg.Sync(); serr != nil {
		err = serr
	} else {
		s.stats.Fsyncs++
	}
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	unlockDir(s.lock)
	return err
}

// --- Replication hooks -----------------------------------------------------
//
// internal/repl streams a primary's committed log to followers byte for
// byte: the source tails the segment files (never past Position), followers
// re-append the decoded batches through their own store, and because
// encodeFrame is deterministic and every batch is exactly one frame, a
// caught-up follower's segment is bit-identical to the primary's.

// SegmentHeaderLen is the length of the segment file header ("TKWL" +
// version), the offset of the first frame in every segment.
const SegmentHeaderLen = segHdrLen

// Position returns the committed write position: the active segment's
// sequence and its byte length including every fully-appended frame. Readers
// of the segment file must never read past the returned offset — bytes
// beyond it may be a frame mid-write.
func (s *Store) Position() (seq uint64, off int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq, s.segOff
}

// Failed returns the poison error, or nil while the store accepts writes.
func (s *Store) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// SegmentPath returns the path of the segment with the given sequence
// (which need not exist).
func (s *Store) SegmentPath(seq uint64) string {
	return filepath.Join(s.dir, SegmentName(seq))
}

// Watch registers a wakeup channel poked (non-blocking, so a slow consumer
// coalesces pokes) after every appended frame and every rotation. The
// returned cancel must be called to unregister.
func (s *Store) Watch() (<-chan struct{}, func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.watchers == nil {
		s.watchers = make(map[uint64]chan struct{})
	}
	id := s.nextWatch
	s.nextWatch++
	ch := make(chan struct{}, 1)
	s.watchers[id] = ch
	cancel := func() {
		s.mu.Lock()
		delete(s.watchers, id)
		s.mu.Unlock()
	}
	return ch, cancel
}

// notifyLocked pokes every watcher. Callers must hold s.mu.
func (s *Store) notifyLocked() {
	for _, ch := range s.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// ErrPartialFrame reports that a buffer ends mid-frame: more bytes are
// needed before the first frame is complete.
var ErrPartialFrame = errors.New("wal: partial frame")

// ErrCorruptFrame reports a frame that is fully present but fails its CRC.
var ErrCorruptFrame = errors.New("wal: frame CRC mismatch")

// FrameLen reads the payload length from a frame header (at least its first
// four bytes) and returns the frame's total length, header included. A
// length past the 64 MiB payload bound is an error: no append writes one.
func FrameLen(hdr []byte) (int64, error) {
	plen := int64(binary.LittleEndian.Uint32(hdr))
	if plen > maxFrameLen {
		return 0, fmt.Errorf("wal: frame length %d exceeds the %d-byte bound", plen, maxFrameLen)
	}
	return frameHdrLen + plen, nil
}

// NextFrame validates the first frame in data (which must start at a frame
// boundary) and returns its total length, header included. It returns
// ErrPartialFrame when data ends mid-frame, ErrCorruptFrame for a CRC
// mismatch and FrameLen's error for a garbage length.
func NextFrame(data []byte) (int, error) {
	if len(data) < frameHdrLen {
		return 0, ErrPartialFrame
	}
	total, err := FrameLen(data)
	if err != nil {
		return 0, err
	}
	if int64(len(data)) < total {
		return 0, ErrPartialFrame
	}
	if crc32.Checksum(data[frameHdrLen:total], crcTable) != binary.LittleEndian.Uint32(data[4:]) {
		return 0, ErrCorruptFrame
	}
	return int(total), nil
}

// DecodeFrame parses one complete frame (header + payload) back into its
// batch, verifying length and CRC.
func DecodeFrame(frame []byte) ([]iupt.Record, error) {
	total, err := NextFrame(frame)
	if err != nil {
		return nil, err
	}
	if total != len(frame) {
		return nil, fmt.Errorf("wal: frame is %d bytes, buffer holds %d", total, len(frame))
	}
	return decodeBatch(frame[frameHdrLen:total])
}

// ScanSegment walks a segment file without applying it: it returns the byte
// length of the valid frame prefix (header included), the CRC32C of those
// prefix bytes, and the number of complete frames. A torn or corrupt tail
// simply ends the prefix. A follower's bootstrap scans its directory with
// this to report a durable (offset, checksum) position the primary can
// verify before resuming the stream mid-segment.
func ScanSegment(path string) (validOff int64, crc uint32, frames int64, err error) {
	data, err := readSegment(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: %s: %w", path, err)
	}
	off, _, _ := walkFrames(data, func([]byte) error { frames++; return nil })
	return off, crc32.Checksum(data[:off], crcTable), frames, nil
}

// PrefixCRC returns the CRC32C of the segment file's first n bytes, or an
// error if the file is shorter. The replication source uses it to check
// that a follower's reported position is a byte-identical prefix of its own
// segment before resuming the stream there.
func PrefixCRC(path string, n int64) (uint32, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if int64(len(data)) < n {
		return 0, fmt.Errorf("wal: %s is %d bytes, shorter than prefix %d", path, len(data), n)
	}
	return crc32.Checksum(data[:n], crcTable), nil
}

// encodeFrame renders one batch as a complete frame, header included, in
// one exact-size allocation. The payload is the record count, then each
// record in the binary IUPT record layout (iupt.AppendRecord), so after its
// count it is byte for byte the body of a .bin file of the same records.
func encodeFrame(recs []iupt.Record) ([]byte, error) {
	size := frameHdrLen + 4
	for i := range recs {
		size += iupt.EncodedLen(&recs[i])
	}
	if size-frameHdrLen > maxFrameLen {
		return nil, fmt.Errorf("wal: batch encodes to %d bytes, exceeding the %d-byte frame bound — split the batch", size-frameHdrLen, maxFrameLen)
	}
	frame := make([]byte, frameHdrLen, size)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(recs)))
	for i := range recs {
		var err error
		if frame, err = iupt.AppendRecord(frame, &recs[i]); err != nil {
			return nil, fmt.Errorf("wal: record %d: %w", i, err)
		}
	}
	payload := frame[frameHdrLen:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	return frame, nil
}

// decodeBatch parses a CRC-verified frame payload back into records.
func decodeBatch(payload []byte) ([]iupt.Record, error) {
	if len(payload) < 4 {
		return nil, errors.New("wal: short payload")
	}
	recs, bad := iupt.DecodeRecords(payload[4:], uint64(binary.LittleEndian.Uint32(payload)), false)
	switch {
	case bad == nil:
		return recs, nil
	case bad.Err != nil:
		return nil, fmt.Errorf("wal: payload truncated in record %d: %w", bad.Record, bad.Err)
	default:
		return nil, fmt.Errorf("wal: %d trailing payload bytes", bad.Trailing)
	}
}

// readSegment reads a segment file and checks its header. A file shorter
// than the header returns its bytes with errShortSegment.
func readSegment(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	switch {
	case err != nil:
		return nil, err
	case len(data) < segHdrLen:
		return data, errShortSegment
	case string(data[:4]) != segMagic:
		return nil, errors.New("bad segment header")
	case binary.LittleEndian.Uint16(data[4:6]) != segVersion:
		return nil, fmt.Errorf("unsupported segment version %d", binary.LittleEndian.Uint16(data[4:6]))
	}
	return data, nil
}

// walkFrames calls fn with each frame of a segment image that NextFrame
// accepts, in order. It returns the offset where the valid prefix ends and
// NextFrame's error for the frame there (nil when the image ends on a frame
// boundary); an error from fn stops the walk at its frame and comes back as
// fnErr.
func walkFrames(data []byte, fn func(frame []byte) error) (off int64, invalid, fnErr error) {
	off = segHdrLen
	for off < int64(len(data)) {
		n, err := NextFrame(data[off:])
		if err != nil {
			return off, err, nil
		}
		if err := fn(data[off : off+int64(n)]); err != nil {
			return off, nil, err
		}
		off += int64(n)
	}
	return off, nil, nil
}

// replaySegment applies every complete frame of one segment to the table,
// stopping at the first invalid one. In the final segment (tolerateTorn)
// an invalid frame ends replay cleanly at the last complete batch and
// reports the valid offset for truncation: an *incomplete* tail — header
// or payload running past EOF, or a garbage length field — is a torn
// write from a crash mid-append; a frame that is fully present but fails
// its CRC is additionally counted in corruptFrames, because a single-write
// append can only shorten the file — a mangled complete frame means
// either bit rot or an unfsynced page lost out of order by a machine
// crash under SyncInterval (whose documented loss window covers it).
// Recovery proceeds — a serving daemon must boot after the crash cases
// the fsync policy admits — but the count is surfaced in Stats and the
// daemon log so silent bit rot is still visible. In a non-final segment
// any invalid frame is a hard error, as is a CRC-valid frame that fails
// to decode.
func replaySegment(path string, table *iupt.Table, tolerateTorn bool) (frames, records, validOff, tornBytes, corruptFrames int64, err error) {
	data, err := readSegment(path)
	if err != nil {
		// A short file is the header's single creation write torn by a
		// crash: it holds no frames, tolerable in the final segment.
		return 0, 0, 0, int64(len(data)), 0, err
	}
	off, invalid, err := walkFrames(data, func(frame []byte) error {
		recs, err := decodeBatch(frame[frameHdrLen:])
		if err != nil {
			return err
		}
		table.Append(recs...)
		frames++
		records += int64(len(recs))
		return nil
	})
	if err != nil {
		return frames, records, off, 0, 0, fmt.Errorf("frame at offset %d: %w", off, err)
	}
	if invalid == nil {
		return frames, records, off, 0, 0, nil
	}
	if errors.Is(invalid, ErrCorruptFrame) {
		corruptFrames = 1
	}
	rest := int64(len(data)) - off
	if !tolerateTorn {
		return frames, records, off, rest, corruptFrames, fmt.Errorf("invalid frame at offset %d in non-final segment: %w", off, invalid)
	}
	return frames, records, off, rest, corruptFrames, nil
}
