package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// batch builds a valid n-record batch: object oid reporting single-sample
// sets at t0, t0+1, ... over cycling P-locations.
func batch(oid int32, t0 int64, n int) []iupt.Record {
	recs := make([]iupt.Record, n)
	for i := range recs {
		recs[i] = iupt.Record{
			OID: iupt.ObjectID(oid),
			T:   iupt.Time(t0 + int64(i)),
			Samples: iupt.SampleSet{
				{Loc: indoor.PLocID(i % 3), Prob: 0.25},
				{Loc: indoor.PLocID(i%3 + 3), Prob: 0.75},
			},
		}
	}
	return recs
}

// mustOpen opens a store and fails the test on error.
func mustOpen(t *testing.T, opts Options) (*Store, *iupt.Table) {
	t.Helper()
	s, table, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.Dir, err)
	}
	return s, table
}

// baseAt is an Options.Base hook standing in for internal/parts: the base
// artifact at sequence seq holds exactly the given batches.
func baseAt(seq uint64, batches ...[]iupt.Record) func(string) (*iupt.Table, uint64, error) {
	return func(string) (*iupt.Table, uint64, error) {
		table := iupt.NewTable()
		for _, b := range batches {
			for _, rec := range b {
				table.Append(rec)
			}
		}
		return table, seq, nil
	}
}

// assertRecords compares a table's contents to the expected batches, in
// canonical sorted order, field by field.
func assertRecords(t *testing.T, table *iupt.Table, batches ...[]iupt.Record) {
	t.Helper()
	want := iupt.NewTable()
	for _, b := range batches {
		for _, rec := range b {
			want.Append(rec)
		}
	}
	wr, gr := want.SortedRecords(), table.SortedRecords()
	if len(wr) != len(gr) {
		t.Fatalf("recovered %d records, want %d", len(gr), len(wr))
	}
	for i := range wr {
		if wr[i].OID != gr[i].OID || wr[i].T != gr[i].T || len(wr[i].Samples) != len(gr[i].Samples) {
			t.Fatalf("record %d: got (%d,%d,%d samples), want (%d,%d,%d samples)",
				i, gr[i].OID, gr[i].T, len(gr[i].Samples), wr[i].OID, wr[i].T, len(wr[i].Samples))
		}
		for j := range wr[i].Samples {
			if wr[i].Samples[j] != gr[i].Samples[j] {
				t.Fatalf("record %d sample %d: got %+v, want %+v", i, j, gr[i].Samples[j], wr[i].Samples[j])
			}
		}
	}
}

func TestOpenEmptyAppendReopen(t *testing.T) {
	dir := t.TempDir()
	s, table := mustOpen(t, Options{Dir: dir})
	if table.Len() != 0 {
		t.Fatalf("fresh dir recovered %d records", table.Len())
	}
	b1, b2 := batch(1, 10, 4), batch(2, 5, 3)
	if err := s.AppendBatch(b1); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(b2); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(nil); err != nil { // empty batch is a no-op
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Frames != 2 || st.Records != 7 || st.SinceSnapshot != 7 {
		t.Fatalf("stats = %+v, want 2 frames / 7 records", st)
	}
	if st.Fsyncs < 2 {
		t.Fatalf("SyncAlways performed %d fsyncs for 2 appends", st.Fsyncs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(b1); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	s2, table2 := mustOpen(t, Options{Dir: dir})
	defer s2.Close()
	assertRecords(t, table2, b1, b2)
	st2 := s2.Stats()
	if st2.ReplayedFrames != 2 || st2.RecoveredRecords != 7 || st2.TornBytes != 0 {
		t.Fatalf("recovery stats = %+v", st2)
	}
}

// TestRotateTruncatesLog: once the caller has committed a base artifact
// holding every appended frame, RotateAfterCommit moves the log to a fresh
// segment and deletes the subsumed one; a reopen over that base replays only
// what was appended after the rotation.
func TestRotateTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, Options{Dir: dir})
	b1, b2, b3 := batch(1, 0, 5), batch(2, 2, 4), batch(3, 50, 2)
	for _, b := range [][]iupt.Record{b1, b2} {
		if err := s.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if seq, err := s.RotateAfterCommit(); err != nil || seq != 1 {
		t.Fatalf("RotateAfterCommit = %d, %v, want sequence 1", seq, err)
	}
	if err := s.AppendBatch(b3); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SnapshotSeq != 1 || st.Snapshots != 1 || st.SinceSnapshot != 2 {
		t.Fatalf("post-rotation stats = %+v", st)
	}

	// Exactly the rotated segment remains on disk, besides the advisory
	// LOCK file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.Name() == "LOCK" {
			continue
		}
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != "wal-00000001.log" {
		t.Fatalf("data dir holds %v, want exactly wal-00000001.log", names)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, table2 := mustOpen(t, Options{Dir: dir, Base: baseAt(1, b1, b2)})
	defer s2.Close()
	assertRecords(t, table2, b1, b2, b3)
	st2 := s2.Stats()
	if st2.SnapshotSeq != 1 || st2.ReplayedFrames != 1 {
		t.Fatalf("recovery stats = %+v, want base seq 1 + 1 replayed frame", st2)
	}
}

// TestTornFinalFrameEveryOffset is the torn-write recovery sweep: the WAL is
// truncated at every byte offset inside the final frame, and replay must
// stop cleanly at the last complete batch every time — then keep accepting
// appends on the truncated log.
func TestTornFinalFrameEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, Options{Dir: dir})
	b1, b2, b3 := batch(1, 0, 3), batch(2, 10, 2), batch(3, 20, 4)
	segPath := filepath.Join(dir, "wal-00000000.log")
	var lastFrameStart int64
	for _, b := range [][]iupt.Record{b1, b2, b3} {
		fi, err := os.Stat(segPath)
		if err != nil {
			t.Fatal(err)
		}
		lastFrameStart = fi.Size()
		if err := s.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) <= lastFrameStart {
		t.Fatalf("no final frame: %d <= %d", len(full), lastFrameStart)
	}

	for off := lastFrameStart; off < int64(len(full)); off++ {
		tornDir := t.TempDir()
		tornSeg := filepath.Join(tornDir, "wal-00000000.log")
		if err := os.WriteFile(tornSeg, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, table2, err := Open(Options{Dir: tornDir})
		if err != nil {
			t.Fatalf("offset %d: Open: %v", off, err)
		}
		assertRecords(t, table2, b1, b2)
		st := s2.Stats()
		if want := off - lastFrameStart; st.TornBytes != want {
			t.Fatalf("offset %d: TornBytes = %d, want %d", off, st.TornBytes, want)
		}
		if st.ReplayedFrames != 2 {
			t.Fatalf("offset %d: ReplayedFrames = %d, want 2", off, st.ReplayedFrames)
		}
		// The torn tail was truncated away: the segment must accept new
		// appends and replay them cleanly on the next open.
		if err := s2.AppendBatch(b3); err != nil {
			t.Fatalf("offset %d: append after torn recovery: %v", off, err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		s3, table3, err := Open(Options{Dir: tornDir})
		if err != nil {
			t.Fatalf("offset %d: reopen: %v", off, err)
		}
		assertRecords(t, table3, b1, b2, b3)
		if err := s3.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSyncIntervalPolicy(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, Options{Dir: dir, Policy: SyncInterval, SyncEvery: 5 * time.Millisecond})
	b := batch(1, 0, 3)
	if err := s.AppendBatch(b); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval syncer never fsynced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, table2 := mustOpen(t, Options{Dir: dir, Policy: SyncInterval, SyncEvery: time.Hour})
	defer s2.Close()
	assertRecords(t, table2, b)
}

// TestStaleFileCleanup simulates the crash window between artifact commit
// and old-file deletion: a stale segment below the base's sequence is
// ignored and removed, and *.tmp leftovers from an interrupted artifact
// write are discarded.
func TestStaleFileCleanup(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, Options{Dir: dir})
	b1, b2 := batch(1, 0, 3), batch(2, 9, 2)
	if err := s.AppendBatch(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RotateAfterCommit(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(b2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Resurrect a stale pre-rotation segment holding a batch that must NOT
	// be replayed (it is already inside base 1), plus a temp leftover.
	staleSeg := filepath.Join(dir, "wal-00000000.log")
	f, err := createSegment(staleSeg)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := encodeFrame(batch(99, 1000, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "part-00000002.tkp.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, table2 := mustOpen(t, Options{Dir: dir, Base: baseAt(1, b1)})
	defer s2.Close()
	assertRecords(t, table2, b1, b2)
	if _, err := os.Stat(staleSeg); !os.IsNotExist(err) {
		t.Errorf("stale segment survived recovery: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("tmp leftover survived recovery: %v", err)
	}
}

// TestCorruptCompleteFrameTruncatesAndCounts pins the recovery rule for a
// complete frame that fails its CRC: replay stops there and truncates (a
// machine crash under SyncInterval can lose an unfsynced page out of
// order, so refusing to boot would brick the daemon on a documented crash
// case), but the drop is observable — CorruptFrames counts it, unlike an
// ordinary torn tail.
func TestCorruptCompleteFrameTruncatesAndCounts(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, Options{Dir: dir})
	segPath := filepath.Join(dir, "wal-00000000.log")
	if err := s.AppendBatch(batch(1, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(batch(2, 10, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the FIRST frame: the frame is complete (the
	// tear interpretation is impossible), so its CRC mismatch is corruption.
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[segHdrLen+frameHdrLen] ^= 0xFF
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, table2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open after mid-frame corruption: %v", err)
	}
	defer s2.Close()
	if table2.Len() != 0 {
		t.Fatalf("recovered %d records past a corrupt frame", table2.Len())
	}
	st := s2.Stats()
	if st.CorruptFrames != 1 {
		t.Fatalf("CorruptFrames = %d, want 1", st.CorruptFrames)
	}
	if st.TornBytes == 0 {
		t.Fatalf("corrupt frame not counted as dropped bytes: %+v", st)
	}
}

// TestDoubleOpenLocked: a second store on the same directory must fail
// while the first holds it, and succeed after Close releases the flock.
func TestDoubleOpenLocked(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, Options{Dir: dir})
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("second Open on a live data dir succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := mustOpen(t, Options{Dir: dir})
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShortFinalSegmentRecreated simulates a crash during segment creation
// itself: a data dir whose active segment is shorter than its own header
// (even zero bytes) must recover — the file holds no frames — instead of
// wedging every subsequent boot.
func TestShortFinalSegmentRecreated(t *testing.T) {
	for _, size := range []int{0, 3, segHdrLen - 1} {
		dir := t.TempDir()
		s, _ := mustOpen(t, Options{Dir: dir})
		b := batch(1, 0, 4)
		if err := s.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RotateAfterCommit(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, "wal-00000001.log")
		if err := os.Truncate(seg, int64(size)); err != nil {
			t.Fatal(err)
		}
		s2, table2 := mustOpen(t, Options{Dir: dir, Base: baseAt(1, b)})
		assertRecords(t, table2, b)
		if st := s2.Stats(); st.TornBytes != int64(size) {
			t.Fatalf("size %d: TornBytes = %d", size, st.TornBytes)
		}
		// The recreated segment must accept appends again.
		b2 := batch(2, 100, 2)
		if err := s2.AppendBatch(b2); err != nil {
			t.Fatal(err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		s3, table3 := mustOpen(t, Options{Dir: dir, Base: baseAt(1, b)})
		assertRecords(t, table3, b, b2)
		if err := s3.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, _, err := Open(Options{}); err == nil {
		t.Fatal("Open accepted empty Dir")
	}
}

// TestUntrustedRecordCountIsClamped: both callers of iupt.DecodeRecords
// read a record count from untrusted bytes — a .bin file's header and a
// CRC-valid WAL frame's payload — and presize by it only as far as the
// bytes can hold records. A count far past the body is refused with the
// first missing record, allocating next to nothing.
func TestUntrustedRecordCountIsClamped(t *testing.T) {
	recs := batch(1, 10, 3)
	var file bytes.Buffer
	if err := iupt.WriteRecordsBinary(&file, recs); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(file.Bytes()[6:], math.MaxUint64)
	path := filepath.Join(t.TempDir(), "huge-count.bin")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	frame, err := encodeFrame(recs[:1])
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(frame[frameHdrLen:], math.MaxUint32)
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[frameHdrLen:], crcTable))

	for _, tc := range []struct {
		name   string
		decode func() error
		want   string
	}{
		{".bin header", func() error { _, err := iupt.ReadFile(path, "bin"); return err }, "iupt: record 3: unexpected EOF"},
		{"WAL frame", func() error { _, err := DecodeFrame(frame); return err }, "wal: payload truncated in record 1: unexpected EOF"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.decode()
			runtime.ReadMemStats(&after)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("refusing the count allocated %d bytes, want under 1 MiB", alloc)
			}
		})
	}
}
