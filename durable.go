package tkplq

import (
	"errors"

	"tkplq/internal/parts"
	"tkplq/internal/wal"
)

// Durability. A System is in-memory by default: records appended via Ingest
// die with the process. Attaching the durable store (OpenPartitioned, then
// SetPersister) makes ingest durable — every accepted batch is written ahead
// to a CRC-framed log before it is applied to the live table, and Snapshot
// seals the table's mutable head into an immutable, memory-mapped partition
// and truncates the log. There is one durable layout; a data directory left
// by a build that wrote a flat snapshot + log is refused with the ways to
// convert it. See docs/OPERATIONS.md for running the tkplqd daemon durably
// and docs/FORMATS.md for the on-disk byte layouts.

type (
	// WALStats is a snapshot of the head log's counters
	// (PartitionedStats.WAL): appended frames / records / bytes, fsyncs,
	// seals, records since the last seal, and what recovery found (recovered
	// records, replayed frames, torn bytes dropped).
	WALStats = wal.Stats
	// SyncPolicy selects when appended WAL frames are fsynced
	// (PartitionedOptions.Policy).
	SyncPolicy = wal.SyncPolicy
)

// WAL fsync policies for PartitionedOptions.Policy.
const (
	// SyncAlways fsyncs after every appended batch (the default): an
	// acknowledged ingest survives a machine crash.
	SyncAlways = wal.SyncAlways
	// SyncInterval batches fsyncs on a background timer
	// (PartitionedOptions.SyncEvery): higher ingest throughput, bounded loss
	// window on a machine crash, no loss on a process crash.
	SyncInterval = wal.SyncInterval
)

type (
	// PartitionedStore is the durable store: a WAL-backed mutable head plus
	// immutable, time-partitioned sealed partitions opened via mmap. Obtain
	// one with OpenPartitioned and attach it with System.SetPersister.
	PartitionedStore = parts.Store
	// PartitionedOptions parametrizes OpenPartitioned: data directory, fsync
	// policy/cadence, partition verification mode, compaction policy.
	PartitionedOptions = parts.Options
	// PartitionedStats is a snapshot of a partitioned store's counters:
	// sealed partition count/records/bytes, seals, compactions, records
	// decoded out of sealed partitions, plus the head WAL's counters.
	PartitionedStats = parts.Stats
	// PartitionVerify selects how much of each sealed partition
	// OpenPartitioned checks (VerifyFull by default).
	PartitionVerify = parts.VerifyMode
	// CompactionPolicy configures PartitionedOptions.Compact: when the
	// size-tiered background compactor merges runs of adjacent small
	// partitions into one larger partition. The zero value enables manual
	// compaction (PartitionedStore.Compact) with default thresholds and no
	// background loop.
	CompactionPolicy = parts.CompactionPolicy
	// CompactResult describes one committed compaction
	// (PartitionedStore.Compact).
	CompactResult = parts.CompactResult
)

// Partition verification modes for PartitionedOptions.Verify.
const (
	// VerifyFull checks every sealed partition's data CRC and column
	// invariants at open — O(file); corruption is a loud boot error.
	VerifyFull = parts.VerifyFull
	// VerifyFooter checks only footer CRC and geometry — O(1) per
	// partition, for instant opens at the cost of rot detection.
	VerifyFooter = parts.VerifyFooter
)

// OpenPartitioned opens (or initializes) a durable data directory: the
// sealed partitions are memory-mapped (verified per opts.Verify) and only
// the short WAL tail is replayed into the mutable head, tolerating a torn
// final frame from a crash mid-append — recovery does work proportional to
// the tail, not the table, and sealed records never occupy heap. A legacy
// flat directory (snapshot-N.bin + wal-N.log) is refused with an error
// naming the snapshot and the ways to convert it. Recovery is
// deterministic: a System built over the returned table answers every query
// bit-identically to one that never restarted. Wire the store into the System with
// SetPersister, then ingest through System.Ingest as usual; System.Snapshot
// seals the head into a new partition.
func OpenPartitioned(opts PartitionedOptions) (*PartitionedStore, *Table, error) {
	return parts.Open(opts)
}

// ErrNoSnapshotter is returned by System.Snapshot when no durable store is
// attached.
var ErrNoSnapshotter = errors.New("tkplq: no snapshot-capable persister attached")

// SetPersister attaches the durable store consulted by Ingest and Snapshot
// (nil detaches it): every validated batch is passed to the store's
// AppendBatch before it is applied to the live table (write-ahead order),
// under the System's ingest serialization lock, and an AppendBatch error
// aborts the ingest with the table untouched. Attach the store before
// serving traffic: SetPersister is synchronized with in-flight Ingest calls,
// but batches ingested before the store is attached are not retroactively
// logged.
func (s *System) SetPersister(p *PartitionedStore) {
	s.ingestMu.Lock()
	s.persist = p
	s.ingestMu.Unlock()
}

// Snapshot seals the attached store's mutable head into a new immutable
// partition and truncates its log — O(head), never O(table). It holds the
// ingest lock for the duration — concurrent Ingest calls wait, queries are
// unaffected — so the cut is exact: the committed partition contains
// precisely the batches appended before it, and the rotated log contains
// precisely the batches after. Returns ErrNoSnapshotter when no store is
// attached.
func (s *System) Snapshot() error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.persist == nil {
		return ErrNoSnapshotter
	}
	return s.persist.Seal()
}
