package tkplq_test

// Legacy flat directories. Builds before the partitioned store became the
// only durable layout wrote one binary snapshot plus one log segment per
// data directory. testdata/flatdir holds two such directories, committed as
// bytes so they keep testing what an OLD build left on disk, not what the
// current code would write:
//
//	clean/  snapshot-00000002.bin + wal-00000002.log (3 frames)
//	stale/  the same, plus what a crash between "snapshot 2 committed" and
//	        "old files deleted" leaves behind: snapshot-00000001.bin and a
//	        snapshot-00000003.bin.tmp leftover
//
// OpenPartitioned must migrate either one-way into part-00000002.tkp, replay
// the log tail on top, and answer bit-identically to an in-memory system
// over the same records; a damaged snapshot must abort the open loudly with
// the directory untouched. Regenerate with
//
//	GEN_FLAT_FIXTURE=1 go test -run TestGenFlatFixture .

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tkplq"
	"tkplq/internal/iupt"
	"tkplq/internal/wal"
)

const (
	flatFixtureDir = "testdata/flatdir"
	// The committed fixture's shape; a regeneration that changes these is a
	// deliberate edit.
	flatSnapshotRecords = 183
	flatStaleRecords    = 100
	flatTailFrames      = 3
	flatTailRecords     = 24
)

// flatFixtureBuilding regenerates the deterministic space the fixture's
// P-location ids refer to, and the records the generator splits into
// snapshot and log tail.
func flatFixtureBuilding(t testing.TB) (*tkplq.Building, []tkplq.Record) {
	t.Helper()
	b, err := tkplq.GenerateBuilding(tkplq.DefaultBuildingConfig())
	if err != nil {
		t.Fatal(err)
	}
	trajs, err := tkplq.SimulateMovement(b, tkplq.MovementConfig{
		Objects: 3, Duration: 160, MaxSpeed: 1.0,
		MinDwell: 30, MaxDwell: 90,
		MinLifespan: 120, MaxLifespan: 160,
		Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	table, err := tkplq.GenerateIUPT(b, trajs, tkplq.PositioningConfig{
		MaxPeriod: 3, MSS: 4, ErrorRadius: 5, Gamma: 0.2, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, table.SortedRecords()
}

// TestGenFlatFixture writes testdata/flatdir from the binary IUPT encoder
// and the log's own frame encoder — the two halves of the flat layout that
// outlive the flat store.
func TestGenFlatFixture(t *testing.T) {
	if os.Getenv("GEN_FLAT_FIXTURE") == "" {
		t.Skip("set GEN_FLAT_FIXTURE=1 to regenerate testdata/flatdir")
	}
	_, recs := flatFixtureBuilding(t)
	if len(recs) != flatSnapshotRecords+flatTailRecords {
		t.Fatalf("generator produced %d records; update the flat* constants to match", len(recs))
	}
	writeSnapshot := func(path string, recs []tkplq.Record) {
		var buf bytes.Buffer
		if err := iupt.WriteRecordsBinary(&buf, recs); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, variant := range []string{"clean", "stale"} {
		dir := filepath.Join(flatFixtureDir, variant)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		// The log first: a base at sequence 2 makes the log create and append
		// to wal-00000002.log, exactly the segment a flat store was on after
		// its second snapshot.
		w, _, err := wal.Open(wal.Options{Dir: dir, Base: func(string) (*iupt.Table, uint64, error) {
			return iupt.NewTable(), 2, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		tail := recs[flatSnapshotRecords:]
		per := len(tail) / flatTailFrames
		for i := 0; i < flatTailFrames; i++ {
			if err := w.AppendBatch(tail[i*per : (i+1)*per]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, "LOCK")); err != nil {
			t.Fatal(err)
		}
		writeSnapshot(filepath.Join(dir, "snapshot-00000002.bin"), recs[:flatSnapshotRecords])
		if variant == "stale" {
			writeSnapshot(filepath.Join(dir, "snapshot-00000001.bin"), recs[:flatStaleRecords])
			if err := os.WriteFile(filepath.Join(dir, "snapshot-00000003.bin.tmp"), []byte("IUPT\x01\x00 torn mid-write"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// flatFixtureHistory decodes the committed clean fixture with the format
// readers alone (no store): the snapshot's records and the log's batches.
func flatFixtureHistory(t *testing.T) (snapshot []tkplq.Record, tail [][]tkplq.Record) {
	t.Helper()
	f, err := os.Open(filepath.Join(flatFixtureDir, "clean", "snapshot-00000002.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	table, err := iupt.ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(flatFixtureDir, "clean", "wal-00000002.log"))
	if err != nil {
		t.Fatal(err)
	}
	for off := wal.SegmentHeaderLen; off < len(seg); {
		n, err := wal.NextFrame(seg[off:])
		if err != nil {
			t.Fatalf("fixture log frame at %d: %v", off, err)
		}
		batch, err := wal.DecodeFrame(seg[off : off+n])
		if err != nil {
			t.Fatal(err)
		}
		tail = append(tail, batch)
		off += n
	}
	return table.SortedRecords(), tail
}

// dirImage reads every file of a data directory except the advisory LOCK,
// for before/after comparisons.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := map[string]string{}
	for _, e := range entries {
		if e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[e.Name()] = string(data)
	}
	return img
}

func TestLegacyFlatDirectoryMigrates(t *testing.T) {
	snapshot, tail := flatFixtureHistory(t)
	if len(snapshot) != flatSnapshotRecords || len(tail) != flatTailFrames {
		t.Fatalf("fixture holds %d snapshot records and %d log frames, want %d and %d",
			len(snapshot), len(tail), flatSnapshotRecords, flatTailFrames)
	}

	// Reference: an in-memory system that never touched a disk.
	b, _ := flatFixtureBuilding(t)
	refTable := tkplq.NewTable()
	for _, rec := range snapshot {
		refTable.Append(rec)
	}
	tailRecords := 0
	for _, batch := range tail {
		for _, rec := range batch {
			refTable.Append(rec)
		}
		tailRecords += len(batch)
	}
	if tailRecords != flatTailRecords {
		t.Fatalf("fixture log holds %d records, want %d", tailRecords, flatTailRecords)
	}
	ref, err := tkplq.NewSystem(b.Space, refTable, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := answerSet(t, ref)

	for _, variant := range []string{"clean", "stale"} {
		t.Run(variant, func(t *testing.T) {
			dir := copyDataDir(t, filepath.Join(flatFixtureDir, variant))
			snapshot2, err := os.ReadFile(filepath.Join(dir, "snapshot-00000002.bin"))
			if err != nil {
				t.Fatal(err)
			}

			// First open: the snapshot becomes partition 2, the log tail
			// replays on top, every flat leftover is gone.
			store, table, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir, Verify: tkplq.VerifyFull})
			if err != nil {
				t.Fatal(err)
			}
			ps := store.Stats()
			if ps.MigratedRecords != flatSnapshotRecords || ps.Partitions != 1 || ps.Seq != 2 {
				t.Fatalf("first open stats = %+v, want %d records migrated into the single partition 2", ps, flatSnapshotRecords)
			}
			if ps.WAL.ReplayedFrames != flatTailFrames || ps.WAL.ReplayedRecords != flatTailRecords {
				t.Fatalf("replayed %d frames / %d records, want the %d-frame / %d-record log tail",
					ps.WAL.ReplayedFrames, ps.WAL.ReplayedRecords, flatTailFrames, flatTailRecords)
			}
			assertSameRecords(t, "migrated records", table.SortedRecords(), refTable.SortedRecords())
			sys, err := tkplq.NewSystem(b.Space, table, tkplq.Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, "migrated", answerSet(t, sys), want)
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			img := dirImage(t, dir)
			if len(img) != 2 || img["part-00000002.tkp"] == "" || img["wal-00000002.log"] == "" {
				t.Fatalf("migrated directory holds %v, want exactly part-00000002.tkp + wal-00000002.log", keys(img))
			}

			// Second open migrates nothing and rewrites nothing.
			store2, table2, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir, Verify: tkplq.VerifyFull})
			if err != nil {
				t.Fatal(err)
			}
			if ps2 := store2.Stats(); ps2.MigratedRecords != 0 || ps2.Partitions != 1 || ps2.WAL.ReplayedRecords != flatTailRecords {
				t.Fatalf("second open stats = %+v, want no migration, 1 partition, the same tail", ps2)
			}
			sys2, err := tkplq.NewSystem(b.Space, table2, tkplq.Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, "second open", answerSet(t, sys2), want)
			if err := store2.Close(); err != nil {
				t.Fatal(err)
			}
			if after := dirImage(t, dir); after["part-00000002.tkp"] != img["part-00000002.tkp"] {
				t.Fatal("second open rewrote the migrated partition")
			}

			// Crash image: the migration committed part-00000002.tkp but died
			// before removing the snapshot. Recovery serves the records once.
			if err := os.WriteFile(filepath.Join(dir, "snapshot-00000002.bin"), snapshot2, 0o644); err != nil {
				t.Fatal(err)
			}
			store3, table3, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir, Verify: tkplq.VerifyFull})
			if err != nil {
				t.Fatal(err)
			}
			defer store3.Close()
			if ps3 := store3.Stats(); ps3.MigratedRecords != 0 || ps3.Partitions != 1 || table3.Len() != refTable.Len() {
				t.Fatalf("crash-image open stats = %+v with %d records, want 1 partition, no re-migration, %d records",
					ps3, table3.Len(), refTable.Len())
			}
			if _, err := os.Stat(filepath.Join(dir, "snapshot-00000002.bin")); !os.IsNotExist(err) {
				t.Fatalf("subsumed snapshot survived recovery: %v", err)
			}
			sys3, err := tkplq.NewSystem(b.Space, table3, tkplq.Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, "crash image", answerSet(t, sys3), want)
		})
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestLegacyFlatSnapshotDamageAbortsOpen: the snapshot format carries no
// checksum, so damage is caught by the reader's own checks — header, length,
// sample-set validity. Whatever trips, OpenPartitioned must fail and leave
// every file as it found it (nothing migrated, nothing deleted).
func TestLegacyFlatSnapshotDamageAbortsOpen(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		// Offset 39 is the top byte (sign + exponent) of the first record's
		// first probability: 14-byte header, 14-byte record header, 4-byte
		// P-location, then the float64.
		"flipped byte": func(b []byte) []byte {
			b[39] ^= 0xFF
			return b
		},
		"truncated tail": func(b []byte) []byte { return b[:len(b)-5] },
		"not a snapshot": func([]byte) []byte { return []byte("not a snapshot") },
	}
	for name, mutate := range damage {
		t.Run(name, func(t *testing.T) {
			dir := copyDataDir(t, filepath.Join(flatFixtureDir, "clean"))
			path := filepath.Join(dir, "snapshot-00000002.bin")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirImage(t, dir)
			store, _, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir})
			if err == nil {
				store.Close()
				t.Fatal("OpenPartitioned accepted a damaged flat snapshot")
			}
			after := dirImage(t, dir)
			if len(after) != len(before) {
				t.Fatalf("failed open changed the file set: %v -> %v", keys(before), keys(after))
			}
			for name, data := range before {
				if after[name] != data {
					t.Fatalf("failed open modified %s", name)
				}
			}
		})
	}
}

// TestGendataFileSeedsDataDir: a gendata -format bin file dropped in as
// snapshot-00000001.bin is the documented way to seed a data directory from
// a file; it goes through the same migration door.
func TestGendataFileSeedsDataDir(t *testing.T) {
	_, table := durableTestBuilding(t)
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "snapshot-00000001.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := table.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	store, recovered, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if ps := store.Stats(); ps.Seq != 1 || ps.MigratedRecords != int64(table.Len()) {
		t.Fatalf("seeded open stats = %+v, want %d records migrated at sequence 1", ps, table.Len())
	}
	assertSameRecords(t, "seeded records", recovered.SortedRecords(), table.SortedRecords())
}
