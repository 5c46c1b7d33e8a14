package tkplq_test

// Legacy flat directories. Builds before the partitioned store became the
// only durable layout wrote one binary snapshot plus one log segment per
// data directory. testdata/flatdir holds two such directories, committed as
// the bytes an old build left on disk:
//
//	clean/  snapshot-00000002.bin + wal-00000002.log (3 frames)
//	stale/  the same, plus what a crash between "snapshot 2 committed" and
//	        "old files deleted" leaves behind: snapshot-00000001.bin and a
//	        snapshot-00000003.bin.tmp leftover
//
// OpenPartitioned refuses both, names the snapshot and the -iupt
// conversion, and leaves every committed file as it found it. The refusal
// never decodes the snapshot, so a damaged one is refused the same way.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tkplq"
	"tkplq/internal/iupt"
	"tkplq/internal/parts"
)

const flatFixtureDir = "testdata/flatdir"

// dirImage reads every committed file of a data directory — all but the
// advisory LOCK and *.tmp leftovers, which recovery may create or delete.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := map[string]string{}
	for _, e := range entries {
		if e.Name() == "LOCK" || filepath.Ext(e.Name()) == ".tmp" {
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

// assertRefusedUntouched opens dir, which must be refused with an error
// naming snapshot-00000002.bin and the -iupt conversion, and checks that
// every committed file is byte-identical afterwards.
func assertRefusedUntouched(t *testing.T, dir string) {
	t.Helper()
	before := dirImage(t, dir)
	store, _, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir})
	if err == nil {
		store.Close()
		t.Fatal("OpenPartitioned opened a legacy flat directory")
	}
	if msg := err.Error(); !strings.Contains(msg, "snapshot-00000002.bin") || !strings.Contains(msg, "-iupt") {
		t.Fatalf("refusal does not name the snapshot and the -iupt conversion: %v", err)
	}
	after := dirImage(t, dir)
	if len(after) != len(before) {
		t.Fatalf("refused open changed the file set: %d files -> %d", len(before), len(after))
	}
	for name, data := range before {
		if after[name] != data {
			t.Fatalf("refused open modified %s", name)
		}
	}
}

func TestLegacyFlatDirectoryRefused(t *testing.T) {
	for _, variant := range []string{"clean", "stale"} {
		t.Run(variant, func(t *testing.T) {
			assertRefusedUntouched(t, copyDataDir(t, filepath.Join(flatFixtureDir, variant)))
		})
	}

	// A crash after an earlier build's migration committed part-00000002.tkp
	// leaves the snapshot beside it: the directory opens, serves each record
	// once and drops the snapshot.
	t.Run("crash leftover", func(t *testing.T) {
		dir := copyDataDir(t, filepath.Join(flatFixtureDir, "clean"))
		snapshot, err := iupt.ReadFile(filepath.Join(dir, "snapshot-00000002.bin"), "bin")
		if err != nil {
			t.Fatal(err)
		}
		buf, err := parts.Encode(snapshot)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "part-00000002.tkp"), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		store, table, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir, Verify: tkplq.VerifyFull})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		ps := store.Stats()
		if ps.Partitions != 1 || ps.SealedRecords != int64(len(snapshot)) || ps.WAL.ReplayedRecords != 24 ||
			int64(table.Len()) != ps.SealedRecords+ps.WAL.ReplayedRecords {
			t.Fatalf("crash-leftover open stats = %+v with %d records, want the %d-record partition plus the 24-record log tail",
				ps, table.Len(), len(snapshot))
		}
		if _, err := os.Stat(filepath.Join(dir, "snapshot-00000002.bin")); !os.IsNotExist(err) {
			t.Fatalf("leftover snapshot survived recovery: %v", err)
		}
	})
}

// A damaged snapshot still aborts the open: it is refused like an intact
// one, without being decoded, and the directory is left as it was.
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
			assertRefusedUntouched(t, dir)
		})
	}
}
