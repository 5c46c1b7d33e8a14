package iupt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// binarySeeds are the hand-picked FuzzReadBinary inputs, also committed
// under testdata/fuzz/FuzzReadBinary.
func binarySeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	valid := binaryFile(tb, []Record{
		{OID: 1, T: 10, Samples: mkSet(3, 0.5, 4, 0.5)},
		{OID: 2, T: 11, Samples: mkSet(5, 1)},
	})
	badVersion := append([]byte(nil), valid...)
	badVersion[4] = 2
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(huge[6:], 1<<62)
	return map[string][]byte{
		"valid":       valid,
		"truncated":   valid[:len(valid)-5],
		"trailing":    append(append([]byte(nil), valid...), 1, 2, 3, 4, 5, 6, 7),
		"bad-magic":   append([]byte("IUPX"), valid[4:]...),
		"bad-version": badVersion,
		"huge-count":  huge,
	}
}

func binaryFile(tb testing.TB, recs []Record) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteRecordsBinary(&buf, recs); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sameBits reports whether two record slices hold the same records in the
// same order, probabilities compared as bit patterns.
func sameBits(ra, rb []Record) bool {
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i].OID != rb[i].OID || ra[i].T != rb[i].T || len(ra[i].Samples) != len(rb[i].Samples) {
			return false
		}
		for j, s := range ra[i].Samples {
			t := rb[i].Samples[j]
			if s.Loc != t.Loc || math.Float64bits(s.Prob) != math.Float64bits(t.Prob) {
				return false
			}
		}
	}
	return true
}

// FuzzReadBinary feeds arbitrary bytes to the binary IUPT reader, the parser
// behind `tkplqd -iupt FILE -format bin`. It must never panic, and every
// input it accepts must re-encode (in file order) to a file of the same
// length that reads back to identical records.
func FuzzReadBinary(f *testing.F) {
	for _, seed := range binarySeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadBinary(data)
		if err != nil {
			return
		}
		again := binaryFile(t, recs)
		if len(again) != len(data) {
			t.Fatalf("accepted %d bytes, re-encoded to %d", len(data), len(again))
		}
		back, err := ReadBinary(again)
		if err != nil {
			t.Fatalf("re-encoded table does not read back: %v", err)
		}
		if !sameBits(recs, back) {
			t.Fatal("re-encoded table reads back different records")
		}
	})
}

// FuzzReadCSV feeds arbitrary bytes to the CSV IUPT reader, the parser
// behind `tkplqd -iupt FILE` (csv is the default -format). It must never
// panic, and every input it accepts must re-encode through CSVWriter and
// read back to bit-identical records.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"1,10,3:0.5;4:0.5\n2,11,5:1\n",
		"# header\n\n   \n1,10,3:1\n",
		"1,10,3:0.5;4:0.5;\n", // a trailing ';'
		"1,10,3:NaN\n",        // a NaN probability
		"4294967296,10,3:1\n", // a 33-bit oid
		"1,10,3:0.5;3:0.5\n",  // a duplicate P-location
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewCSVWriter(&buf)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-encoded records do not read back: %v", err)
		}
		if !sameBits(recs, back) {
			t.Fatal("re-encoded records read back different records")
		}
	})
}

// TestReadBinaryRejectsTrailingBytes: the stream must end exactly after the
// header's record count, and the error names the surplus.
func TestReadBinaryRejectsTrailingBytes(t *testing.T) {
	data := binaryFile(t, []Record{{OID: 1, T: 1, Samples: mkSet(1, 1.0)}})
	data = append(data, 0, 0, 0, 0, 0, 0, 0)
	_, err := ReadBinary(data)
	if err == nil || !strings.Contains(err.Error(), "7 trailing bytes") {
		t.Fatalf("ReadBinary(one record + 7 bytes) = %v, want a 7-trailing-bytes error", err)
	}
}

// TestBinaryRejectsTooManySamples: a sample count that does not fit the
// record's uint16 field is refused by both writers.
func TestBinaryRejectsTooManySamples(t *testing.T) {
	rec := Record{OID: 1, T: 1, Samples: make(SampleSet, math.MaxUint16+1)}
	if _, err := AppendRecord(nil, &rec); err == nil {
		t.Error("AppendRecord accepted 65536 samples")
	}
	if err := WriteRecordsBinary(&bytes.Buffer{}, []Record{rec}); err == nil {
		t.Error("WriteRecordsBinary accepted 65536 samples")
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "x.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := NewBinaryWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(rec); err == nil {
		t.Error("BinaryWriter accepted 65536 samples")
	}
}

// TestDecodeRecordBounds: every proper prefix of a record is short input,
// never a panic or a partial record.
func TestDecodeRecordBounds(t *testing.T) {
	rec := Record{OID: -7, T: 1 << 40, Samples: mkSet(2, 0.25, 9, 0.75)}
	b, err := AppendRecord(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != EncodedLen(&rec) {
		t.Fatalf("encoded %d bytes, EncodedLen says %d", len(b), EncodedLen(&rec))
	}
	for i := range b {
		if _, _, err := decodeRecord(b[:i], make(SampleSet, 2)); err == nil {
			t.Fatalf("decodeRecord accepted a %d-byte prefix of a %d-byte record", i, len(b))
		}
	}
	got, n, err := decodeRecord(append(b, 0xff), make(SampleSet, 2))
	if err != nil || n != len(b) || got.OID != rec.OID || got.T != rec.T || !slices.Equal(got.Samples, rec.Samples) {
		t.Fatalf("decodeRecord = %+v, %d, %v", got, n, err)
	}
}

func TestGenCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate the committed seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadBinary")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range binarySeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
