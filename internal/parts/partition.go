// Package parts implements the memory-mapped, time-partitioned table store:
// an immutable columnar partition file format plus a Store that pairs a
// mutable in-heap head (fed by ingest through the WAL) with a list of sealed
// partitions opened via mmap. Sealing writes the head out as one partition
// file (tmp + fsync + rename), the WAL rotates, and steady state is N sealed
// partitions plus one short log segment — so a restart maps the sealed set
// in O(partitions) and replays only the WAL tail, and the table is not
// bounded by RAM: sealed pages are clean file-backed memory the OS drops and
// refaults on demand.
//
// The byte layout (specified in docs/FORMATS.md) is columnar and
// fixed-width so every access is a binary-searchable slice into the mapping:
//
//	header:  magic "TKPT", version uint16
//	T    column: int64  × n       record timestamps, canonically sorted
//	OID  column: int32  × n       record object ids, parallel to T
//	OFF  column: uint32 × (n+1)   per-record sample offsets (prefix sums)
//	LOC  column: int32  × S       sample P-locations, concatenated
//	PROB column: float64 × S      sample probabilities, raw IEEE-754 bits
//	footer (fixed 56 bytes at EOF): counts, time/oid spans, data CRC32C,
//	        version, footer CRC32C, magic "TKPF"
//
// Records are stored in the table's canonical (T, arrival) order — a stable
// time sort, same-timestamp records in append order — NOT re-sorted by
// (T, OID): canonical order is what keeps float64 flows bit-identical
// between a partitioned and an in-memory table (internal/iupt's merge
// tie-breaks by partition sequence, which is append order). Probabilities
// round-trip as raw bits for the same reason.
package parts

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

const (
	partMagic   = "TKPT"
	footMagic   = "TKPF"
	partVersion = uint16(1)
	partHdrLen  = 6  // magic + version
	footerLen   = 56 // fixed footer at EOF
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// footer is the decoded fixed-size trailer of a partition file.
type footer struct {
	records uint64
	samples uint64
	tMin    int64
	tMax    int64
	oidMin  int32
	oidMax  int32
	dataCRC uint32
	version uint16
}

// layout computes the column byte offsets for n records and s samples.
type layout struct {
	t, oid, off, loc, prob int64 // start offsets
	size                   int64 // total file size including footer
}

func computeLayout(n, s int64) layout {
	var l layout
	l.t = partHdrLen
	l.oid = l.t + 8*n
	l.off = l.oid + 4*n
	l.loc = l.off + 4*(n+1)
	l.prob = l.loc + 4*s
	l.size = l.prob + 8*s + footerLen
	return l
}

// Encode renders recs as one partition file image. recs must be non-empty,
// in canonical (T, arrival) order (iupt.Table.HeadRecords yields exactly
// that), with validated sample sets.
func Encode(recs []iupt.Record) ([]byte, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("parts: refusing to encode an empty partition")
	}
	n := int64(len(recs))
	var s int64
	for i := range recs {
		if i > 0 && recs[i].T < recs[i-1].T {
			return nil, fmt.Errorf("parts: records out of time order at %d (%d after %d)", i, recs[i].T, recs[i-1].T)
		}
		if len(recs[i].Samples) == 0 {
			return nil, fmt.Errorf("parts: record %d has an empty sample set", i)
		}
		s += int64(len(recs[i].Samples))
	}
	if s > math.MaxUint32 {
		return nil, fmt.Errorf("parts: %d samples exceed the format's uint32 offset bound — seal more often", s)
	}
	l := computeLayout(n, s)
	buf := make([]byte, l.size)
	off := uint32(0)
	si := int64(0)
	for i := range recs {
		rec := &recs[i]
		binary.LittleEndian.PutUint64(buf[l.t+8*int64(i):], uint64(rec.T))
		binary.LittleEndian.PutUint32(buf[l.oid+4*int64(i):], uint32(int32(rec.OID)))
		binary.LittleEndian.PutUint32(buf[l.off+4*int64(i):], off)
		for _, smp := range rec.Samples {
			binary.LittleEndian.PutUint32(buf[l.loc+4*si:], uint32(int32(smp.Loc)))
			binary.LittleEndian.PutUint64(buf[l.prob+8*si:], math.Float64bits(smp.Prob))
			si++
		}
		off += uint32(len(rec.Samples))
	}
	finishImage(buf, l, n, s)
	return buf, nil
}

// finishImage completes a partition image of n records and s samples whose
// T, OID and OFF[:n] columns and samples are in place: it writes OFF[n], the
// header and the footer, taking the time span from the first and last T and
// the id span from the OID column. It is the one writer of the header and
// footer, behind Encode and mergeEncode alike.
func finishImage(buf []byte, l layout, n, s int64) {
	copy(buf, partMagic)
	binary.LittleEndian.PutUint16(buf[4:], partVersion)
	binary.LittleEndian.PutUint32(buf[l.off+4*n:], uint32(s))
	oidMin, oidMax := int32(math.MaxInt32), int32(math.MinInt32)
	for i := int64(0); i < n; i++ {
		oid := int32(binary.LittleEndian.Uint32(buf[l.oid+4*i:]))
		oidMin, oidMax = min(oidMin, oid), max(oidMax, oid)
	}
	f := buf[l.size-footerLen:]
	binary.LittleEndian.PutUint64(f[0:], uint64(n))
	binary.LittleEndian.PutUint64(f[8:], uint64(s))
	copy(f[16:24], buf[l.t:])         // t_min = T[0]
	copy(f[24:32], buf[l.t+8*(n-1):]) // t_max = T[n-1]
	binary.LittleEndian.PutUint32(f[32:], uint32(oidMin))
	binary.LittleEndian.PutUint32(f[36:], uint32(oidMax))
	binary.LittleEndian.PutUint32(f[40:], crc32.Checksum(buf[:l.size-footerLen], crcTable))
	binary.LittleEndian.PutUint16(f[44:], partVersion)
	binary.LittleEndian.PutUint16(f[46:], 0) // reserved
	binary.LittleEndian.PutUint32(f[48:], crc32.Checksum(f[:48], crcTable))
	copy(f[52:], footMagic)
}

// VerifyMode selects how much of a partition file Open checks.
type VerifyMode int

const (
	// VerifyFull checks the data CRC over the whole file plus the column
	// invariants (sorted T, monotone offsets) — O(file), the default: a
	// corrupt sealed partition is a loud boot error, never silent data loss.
	VerifyFull VerifyMode = iota
	// VerifyFooter checks only the footer CRC and the structural geometry —
	// O(1), for deployments that prefer instant opens over rot detection
	// (the footer CRC still catches truncation and torn commits).
	VerifyFooter
)

// Partition is one sealed, immutable partition, opened read-only over a
// memory mapping (or a heap copy on platforms without mmap). It implements
// iupt.SealedPart. A Partition is safe for concurrent use.
//
// The mapping is reference-counted: OpenFile hands the caller the owner
// reference, readers bracket decodes with Retain/Release (iupt.Table does
// this inside its lock), and Close drops the owner reference — the mapping
// is released only when the last reference goes, so a compaction can retire
// a partition while in-flight queries still read their retained snapshot.
type Partition struct {
	path   string
	seqLo  uint64 // first seal sequence covered (== seqHi for uncompacted)
	seqHi  uint64 // last seal sequence covered
	data   []byte
	mapped bool
	l      layout
	n      int64
	s      int64
	tMin   iupt.Time
	tMax   iupt.Time
	oidMin iupt.ObjectID
	oidMax iupt.ObjectID

	// refs counts outstanding references: the owner's (from OpenFile) plus
	// one per in-flight Retain. closed makes Close idempotent.
	refs   atomic.Int64
	closed atomic.Bool

	objOnce sync.Once
	objects []iupt.ObjectID

	// materialized counts records decoded out of this partition since open —
	// the observable that lets tests prove a window query never touches
	// non-overlapping partitions and that recovery does no partition decode.
	materialized atomic.Int64
}

func decodeFooter(f []byte) (footer, error) {
	var ft footer
	if string(f[52:56]) != footMagic {
		return ft, fmt.Errorf("bad footer magic %q", f[52:56])
	}
	if got, want := crc32.Checksum(f[:48], crcTable), binary.LittleEndian.Uint32(f[48:]); got != want {
		return ft, fmt.Errorf("footer CRC mismatch: computed %08x, stored %08x", got, want)
	}
	ft.records = binary.LittleEndian.Uint64(f[0:])
	ft.samples = binary.LittleEndian.Uint64(f[8:])
	ft.tMin = int64(binary.LittleEndian.Uint64(f[16:]))
	ft.tMax = int64(binary.LittleEndian.Uint64(f[24:]))
	ft.oidMin = int32(binary.LittleEndian.Uint32(f[32:]))
	ft.oidMax = int32(binary.LittleEndian.Uint32(f[36:]))
	ft.dataCRC = binary.LittleEndian.Uint32(f[40:])
	ft.version = binary.LittleEndian.Uint16(f[44:])
	if ft.version != partVersion {
		return ft, fmt.Errorf("unsupported partition version %d", ft.version)
	}
	return ft, nil
}

// OpenFile maps one partition file read-only and verifies it per mode. The
// returned partition's Seq is zero; the Store assigns it from the file name.
func OpenFile(path string, mode VerifyMode) (*Partition, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("parts: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("parts: %s: %w", path, err)
	}
	size := fi.Size()
	if size < partHdrLen+footerLen {
		return nil, fmt.Errorf("parts: %s: %d bytes is shorter than header+footer — truncated partition", path, size)
	}
	data, mapped, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("parts: %s: %w", path, err)
	}
	p := &Partition{path: path, data: data, mapped: mapped}
	p.refs.Store(1) // the owner reference; Close drops it
	if err := p.verify(mode); err != nil {
		p.Close()
		return nil, fmt.Errorf("parts: %s: %w", path, err)
	}
	return p, nil
}

func (p *Partition) verify(mode VerifyMode) error {
	if string(p.data[:4]) != partMagic {
		return fmt.Errorf("bad magic %q", p.data[:4])
	}
	if v := binary.LittleEndian.Uint16(p.data[4:6]); v != partVersion {
		return fmt.Errorf("unsupported partition version %d", v)
	}
	ft, err := decodeFooter(p.data[len(p.data)-footerLen:])
	if err != nil {
		return err
	}
	if ft.records == 0 {
		return fmt.Errorf("partition holds zero records")
	}
	// Bound the untrusted counts by the file size BEFORE computing the
	// layout: a record costs at least 12 bytes (T + OID) and a sample at
	// least 12 (LOC + PROB), so any declared count past size/12 is corrupt.
	// Without this, a huge uint64 count could wrap the layout arithmetic so
	// the size check below passes and the column loops index out of range.
	size := int64(len(p.data))
	if ft.records > uint64(size)/12 || ft.samples > uint64(size)/12 {
		return fmt.Errorf("footer declares %d records / %d samples — more than %d bytes can hold", ft.records, ft.samples, size)
	}
	p.n = int64(ft.records)
	p.s = int64(ft.samples)
	p.l = computeLayout(p.n, p.s)
	if p.l.size != size {
		return fmt.Errorf("footer declares %d records / %d samples (%d bytes), file has %d — truncated or corrupt partition", ft.records, ft.samples, p.l.size, len(p.data))
	}
	p.tMin, p.tMax = iupt.Time(ft.tMin), iupt.Time(ft.tMax)
	p.oidMin, p.oidMax = iupt.ObjectID(ft.oidMin), iupt.ObjectID(ft.oidMax)
	if p.tMin > p.tMax {
		return fmt.Errorf("footer time span inverted (%d > %d)", p.tMin, p.tMax)
	}
	if mode == VerifyFooter {
		return nil
	}
	if got := crc32.Checksum(p.data[:p.l.size-footerLen], crcTable); got != ft.dataCRC {
		return fmt.Errorf("data CRC mismatch: computed %08x, footer says %08x — corrupt partition", got, ft.dataCRC)
	}
	// Column invariants the read path's binary searches rely on.
	if p.timeAt(0) != p.tMin || p.timeAt(p.n-1) != p.tMax {
		return fmt.Errorf("T column bounds disagree with footer span")
	}
	for i := int64(1); i < p.n; i++ {
		if p.timeAt(i) < p.timeAt(i-1) {
			return fmt.Errorf("T column out of order at record %d", i)
		}
	}
	prev := uint32(0)
	for i := int64(0); i <= p.n; i++ {
		o := binary.LittleEndian.Uint32(p.data[p.l.off+4*i:])
		if i == 0 && o != 0 {
			return fmt.Errorf("OFF column starts at %d, want 0", o)
		}
		if i > 0 && o <= prev {
			return fmt.Errorf("OFF column not strictly increasing at record %d", i)
		}
		prev = o
	}
	if int64(prev) != p.s {
		return fmt.Errorf("OFF column ends at %d, footer declares %d samples", prev, p.s)
	}
	return nil
}

// Close drops the owner reference taken at OpenFile; the mapping is
// released once every outstanding Retain has been Released too. Close is
// idempotent. Callers must not start new reads after Close.
func (p *Partition) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	p.Release()
	return nil
}

// Retain implements iupt.SealedPart: it pins the mapping for a read.
func (p *Partition) Retain() { p.refs.Add(1) }

// Release implements iupt.SealedPart: it drops one reference and releases
// the mapping when the last one goes.
func (p *Partition) Release() {
	if n := p.refs.Add(-1); n == 0 {
		data := p.data
		p.data = nil
		if p.mapped && data != nil {
			_ = unmapFile(data)
		}
	} else if n < 0 {
		panic("parts: Partition released more times than retained")
	}
}

// Identity implements iupt.SealedPart: the seal-sequence range packs into
// one comparable value. Sequences are per-directory and never reused, and a
// compacted partition covers a multi-sequence range no single seal can, so
// within a store's lifetime identical identity implies identical bytes.
func (p *Partition) Identity() uint64 { return p.seqLo<<32 | p.seqHi&0xffffffff }

// Path returns the partition's file path.
func (p *Partition) Path() string { return p.path }

// Seq returns the partition's newest seal sequence (from its file name).
// For a compacted partition this is the range's upper bound.
func (p *Partition) Seq() uint64 { return p.seqHi }

// SeqRange returns the inclusive seal-sequence range the partition covers.
// An uncompacted partition covers [seq, seq].
func (p *Partition) SeqRange() (lo, hi uint64) { return p.seqLo, p.seqHi }

// SizeBytes returns the on-disk (and mapped) size.
func (p *Partition) SizeBytes() int64 { return int64(len(p.data)) }

// Bytes returns the partition's full mapped image — exactly the file's
// bytes. The replication source streams it to bootstrapping followers
// (byte-for-byte: partition identity implies bytes). Callers must hold a
// Retain across every read of the returned slice: the mapping outlives a
// concurrent compaction's delete of the file, but not the last Release.
func (p *Partition) Bytes() []byte { return p.data }

// Materialized returns the number of records decoded from this partition
// since it was opened.
func (p *Partition) Materialized() int64 { return p.materialized.Load() }

func (p *Partition) timeAt(i int64) iupt.Time {
	return iupt.Time(binary.LittleEndian.Uint64(p.data[p.l.t+8*i:]))
}

// Len implements iupt.SealedPart.
func (p *Partition) Len() int { return int(p.n) }

// Span implements iupt.SealedPart.
func (p *Partition) Span() (lo, hi iupt.Time) { return p.tMin, p.tMax }

// searchT returns the first record index with T >= bound (inclusive=false)
// or T > bound (inclusive=true), by binary search over the T column.
func (p *Partition) searchT(bound iupt.Time, inclusive bool) int64 {
	lo, hi := int64(0), p.n
	for lo < hi {
		mid := int64(uint64(lo+hi) >> 1)
		t := p.timeAt(mid)
		if t < bound || (inclusive && t == bound) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Locate implements iupt.SealedPart by binary search over the T column.
func (p *Partition) Locate(ts, te iupt.Time) (lo, hi int) {
	return int(p.searchT(ts, false)), int(p.searchT(te, true))
}

// AppendRecords implements iupt.SealedPart: it decodes the records at
// positions [lo, hi) into heap values (sample sets included — nothing in the
// returned records aliases the mapping, so a record outlives a Close) and
// appends them to dst in canonical order. The sample sets are carved from the
// tail of *samples (iupt.Carve), or, with samples nil, from one fresh
// exact-size allocation. It is the partition's one record decoder.
func (p *Partition) AppendRecords(dst []iupt.Record, samples *iupt.SampleSet, lo, hi int) []iupt.Record {
	if hi <= lo {
		return dst
	}
	p.materialized.Add(int64(hi - lo))
	offBase := p.l.off
	sampLo := int64(binary.LittleEndian.Uint32(p.data[offBase+4*int64(lo):]))
	sampHi := int64(binary.LittleEndian.Uint32(p.data[offBase+4*int64(hi):]))
	// One flat run for all sample sets in the range, sliced per record.
	flat := iupt.Carve(samples, int(sampHi-sampLo))
	for i := range flat {
		si := sampLo + int64(i)
		flat[i].Loc = indoor.PLocID(int32(binary.LittleEndian.Uint32(p.data[p.l.loc+4*si:])))
		flat[i].Prob = math.Float64frombits(binary.LittleEndian.Uint64(p.data[p.l.prob+8*si:]))
	}
	dst = slices.Grow(dst, hi-lo)
	for i := int64(lo); i < int64(hi); i++ {
		so := int64(binary.LittleEndian.Uint32(p.data[offBase+4*i:]))
		se := int64(binary.LittleEndian.Uint32(p.data[offBase+4*(i+1):]))
		dst = append(dst, iupt.Record{
			OID:     iupt.ObjectID(int32(binary.LittleEndian.Uint32(p.data[p.l.oid+4*i:]))),
			T:       p.timeAt(i),
			Samples: flat[so-sampLo : se-sampLo : se-sampLo],
		})
	}
	return dst
}

// Objects implements iupt.SealedPart: the distinct object ids, ascending,
// computed once from the OID column (no sample decode) and memoized.
func (p *Partition) Objects() []iupt.ObjectID {
	p.objOnce.Do(func() {
		seen := make(map[iupt.ObjectID]struct{})
		for i := int64(0); i < p.n; i++ {
			seen[iupt.ObjectID(int32(binary.LittleEndian.Uint32(p.data[p.l.oid+4*i:])))] = struct{}{}
		}
		out := make([]iupt.ObjectID, 0, len(seen))
		for oid := range seen {
			out = append(out, oid)
		}
		slices.Sort(out)
		p.objects = out
	})
	return p.objects
}
