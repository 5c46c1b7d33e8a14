package parts

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tkplq/internal/iupt"
	"tkplq/internal/wal"
)

// Format goldens: one small committed file per on-disk layout of
// docs/FORMATS.md — a binary IUPT file, a WAL segment, two sealed partitions
// and their compaction. Each test decodes a golden to its records, encodes
// them again through the production writer and demands the committed bytes,
// so no refactor of an encoder or decoder can move a byte unnoticed. The
// files only change with a format version bump; regenerate them then with
//
//	GEN_FORMAT_GOLDENS=1 go test -run TestGenFormatGoldens ./internal/parts

var goldenDir = filepath.Join("testdata", "formats")

// goldenRecords is the history every golden holds, in canonical (T, arrival)
// order: one to three samples per record, a timestamp tie, signed and
// extreme ids and probabilities that are not short decimals.
func goldenRecords() []iupt.Record {
	return []iupt.Record{
		{OID: 7, T: 1000, Samples: iupt.SampleSet{{Loc: 3, Prob: 1}}},
		{OID: 42, T: 1005, Samples: iupt.SampleSet{{Loc: 4, Prob: 0.25}, {Loc: 9, Prob: 0.75}}},
		{OID: 7, T: 1010, Samples: iupt.SampleSet{{Loc: 5, Prob: 0.1}, {Loc: 6, Prob: 0.2}, {Loc: 8, Prob: 0.7}}},
		{OID: math.MaxInt32, T: 1010, Samples: iupt.SampleSet{{Loc: math.MaxInt32, Prob: 1.0 / 3}, {Loc: 0, Prob: 2.0 / 3}}},
		{OID: 42, T: 1020, Samples: iupt.SampleSet{{Loc: 4, Prob: 0.6}, {Loc: 5, Prob: 0.4}}},
		{OID: -3, T: 1030, Samples: iupt.SampleSet{{Loc: -1, Prob: 0.5}, {Loc: 2, Prob: 0.5}}},
	}
}

// goldenBatches splits the history into the WAL golden's three frames.
func goldenBatches() [][]iupt.Record {
	r := goldenRecords()
	return [][]iupt.Record{r[0:2], r[2:3], r[3:6]}
}

// goldenParts splits the history into two seals whose time spans interleave
// (the T tie falls across them), so their merge exercises the tie-break.
func goldenParts() (p1, p2 []iupt.Record) {
	r := goldenRecords()
	return []iupt.Record{r[0], r[2], r[4]}, []iupt.Record{r[1], r[3], r[5]}
}

const (
	goldenBin  = "records.bin"
	goldenWAL  = "wal-00000000.log"
	goldenP1   = "part-00000001.tkp"
	goldenP2   = "part-00000002.tkp"
	goldenComp = "part-00000001-00000002.tkp"
)

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func binaryIUPT(t *testing.T, recs []iupt.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := iupt.WriteRecordsBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// walImage appends each batch through a fresh wal.Store and returns the
// resulting segment file.
func walImage(t *testing.T, batches [][]iupt.Record) []byte {
	t.Helper()
	dir := t.TempDir()
	log, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := log.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, wal.SegmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestFormatGoldenBinaryIUPT(t *testing.T) {
	data := readGolden(t, goldenBin)
	recs, err := iupt.ReadFile(filepath.Join(goldenDir, goldenBin), "bin")
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, goldenBin, goldenRecords(), recs)
	if got := binaryIUPT(t, recs); !bytes.Equal(got, data) {
		t.Fatalf("WriteRecordsBinary re-encodes %s to different bytes:\n got %x\nwant %x", goldenBin, got, data)
	}
	path := filepath.Join(t.TempDir(), "stream.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bw, err := iupt.NewBinaryWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := bw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("BinaryWriter re-encodes %s to different bytes (err %v)", goldenBin, err)
	}
}

func TestFormatGoldenWAL(t *testing.T) {
	data := readGolden(t, goldenWAL)
	if len(data) < wal.SegmentHeaderLen || string(data[:4]) != "TKWL" || data[4] != 1 || data[5] != 0 {
		t.Fatalf("%s: bad segment header % x", goldenWAL, data[:min(len(data), 6)])
	}
	var batches [][]iupt.Record
	var bodies []byte // every frame payload after its 4-byte record count
	for off := wal.SegmentHeaderLen; off < len(data); {
		n, err := wal.NextFrame(data[off:])
		if err != nil {
			t.Fatalf("%s: frame at %d: %v", goldenWAL, off, err)
		}
		recs, err := wal.DecodeFrame(data[off : off+n])
		if err != nil {
			t.Fatalf("%s: frame at %d: %v", goldenWAL, off, err)
		}
		// The payload after the record count is the binary IUPT body of
		// the same records (docs/FORMATS.md): check it frame by frame.
		payload := data[off+8 : off+n]
		if bin := binaryIUPT(t, recs); !bytes.Equal(payload[4:], bin[14:]) {
			t.Fatalf("%s: frame at %d: payload records differ from the .bin body of the same records", goldenWAL, off)
		}
		bodies = append(bodies, payload[4:]...)
		batches = append(batches, recs)
		off += n
	}
	if len(batches) < 3 {
		t.Fatalf("%s holds %d frames, want >= 3", goldenWAL, len(batches))
	}
	var all []iupt.Record
	for _, b := range batches {
		all = append(all, b...)
	}
	sameRecords(t, goldenWAL, goldenRecords(), all)
	if bin := readGolden(t, goldenBin); !bytes.Equal(bodies, bin[14:]) {
		t.Fatalf("%s: frame payloads differ from the body of %s", goldenWAL, goldenBin)
	}
	if got := walImage(t, batches); !bytes.Equal(got, data) {
		t.Fatalf("AppendBatch re-encodes %s to different bytes:\n got %x\nwant %x", goldenWAL, got, data)
	}
}

func TestFormatGoldenPartition(t *testing.T) {
	p1, p2 := goldenParts()
	var opened []*Partition
	for _, c := range []struct {
		name string
		want []iupt.Record
	}{{goldenP1, p1}, {goldenP2, p2}, {goldenComp, goldenRecords()}} {
		data := readGolden(t, c.name)
		p, err := OpenFile(filepath.Join(goldenDir, c.name), VerifyFull)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		recs := rangeOf(p, math.MinInt64, math.MaxInt64)
		sameRecords(t, c.name, c.want, recs)
		got, err := Encode(recs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("Encode re-encodes %s to different bytes:\n got %x\nwant %x", c.name, got, data)
		}
		opened = append(opened, p)
	}
	merged, err := mergeEncode(opened[:2])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, readGolden(t, goldenComp)) {
		t.Fatalf("mergeEncode(%s, %s) differs from %s", goldenP1, goldenP2, goldenComp)
	}
}

func TestGenFormatGoldens(t *testing.T) {
	if os.Getenv("GEN_FORMAT_GOLDENS") == "" {
		t.Skip("set GEN_FORMAT_GOLDENS=1 to regenerate the committed format goldens")
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join(goldenDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(goldenBin, binaryIUPT(t, goldenRecords()))
	write(goldenWAL, walImage(t, goldenBatches()))
	p1, p2 := goldenParts()
	var opened []*Partition
	for _, c := range []struct {
		name string
		recs []iupt.Record
	}{{goldenP1, p1}, {goldenP2, p2}} {
		writePartFile(t, filepath.Join(goldenDir, c.name), c.recs)
		p, err := OpenFile(filepath.Join(goldenDir, c.name), VerifyFull)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		opened = append(opened, p)
	}
	merged, err := mergeEncode(opened)
	if err != nil {
		t.Fatal(err)
	}
	write(goldenComp, merged)
}
