package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"tkplq/internal/iupt"
)

// TestGendataCSV: a generated CSV dataset parses back into a valid table
// with the requested shape, and -stats reports it.
func TestGendataCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.csv")
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-objects", "6", "-duration", "900", "-seed", "11",
		"-out", path, "-stats",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "iupt:") {
		t.Errorf("-stats output missing iupt line: %q", stderr.String())
	}

	recs, err := iupt.ReadFile(path, "csv")
	if err != nil {
		t.Fatal(err)
	}
	table := iupt.NewTable()
	table.Append(recs...)
	for i, rec := range table.SortedRecords() {
		if err := rec.Samples.Validate(); err != nil {
			t.Fatalf("generated record %d invalid: %v", i, err)
		}
	}
	if table.Len() == 0 {
		t.Fatal("generated table is empty")
	}
	if got := len(table.Objects()); got != 6 {
		t.Errorf("table has %d objects, want 6", got)
	}
	_, hi, ok := table.TimeSpan()
	if !ok || hi > 900 {
		t.Errorf("time span end = %d (ok=%v), want ≤ 900", hi, ok)
	}
}

// TestGendataBinaryRoundTrip: bin output of the same seed decodes to the
// identical table the CSV path produced.
func TestGendataBinaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "data.csv")
	binPath := filepath.Join(dir, "data.bin")
	args := []string{"-objects", "4", "-duration", "600", "-seed", "11"}
	var discard bytes.Buffer
	if err := run(append(args, "-out", csvPath), &discard, &discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-out", binPath, "-format", "bin"), &discard, &discard); err != nil {
		t.Fatal(err)
	}

	fromCSV, err := iupt.ReadFile(csvPath, "csv")
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := iupt.ReadFile(binPath, "bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCSV) != len(fromBin) {
		t.Fatalf("csv has %d records, bin has %d", len(fromCSV), len(fromBin))
	}
	for i := range fromCSV {
		a, b := fromCSV[i], fromBin[i]
		if a.OID != b.OID || a.T != b.T || len(a.Samples) != len(b.Samples) {
			t.Fatalf("record %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestGendataStdoutAndErrors: no -out streams to stdout; bad flags error.
func TestGendataStdoutAndErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-objects", "2", "-duration", "600", "-seed", "1"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if _, err := iupt.ReadCSV(bytes.NewReader(stdout.Bytes())); err != nil {
		t.Errorf("stdout output does not parse as CSV: %v", err)
	}

	var discard bytes.Buffer
	if err := run([]string{"-dataset", "marsbase"}, &discard, &discard); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := run([]string{"-format", "yaml"}, &discard, &discard); err == nil {
		t.Error("unknown format accepted")
	}
}
