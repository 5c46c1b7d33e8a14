package iupt_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tkplq/internal/iupt"
	"tkplq/internal/sim"
)

// BenchmarkReadFile measures iupt.ReadFile, the loader behind the -iupt
// flag of tkplq and tkplqd, over a gendata-shaped file of each format: the
// default building, 20 objects over 2 hours (about 53 000 records), written
// in canonical order. ns/record divides the time per read by its records.
func BenchmarkReadFile(b *testing.B) {
	bld, err := sim.BuildingByName("syn")
	if err != nil {
		b.Fatal(err)
	}
	recs, err := sim.CLIRecords(bld, "", "", 20, 7200, 1)
	if err != nil {
		b.Fatal(err)
	}
	table := iupt.NewTable()
	table.Append(recs...)
	for _, format := range []string{"bin", "csv"} {
		var file bytes.Buffer
		if format == "bin" {
			err = table.WriteBinary(&file)
		} else {
			err = table.WriteCSV(&file)
		}
		path := filepath.Join(b.TempDir(), "iupt."+format)
		if err == nil {
			err = os.WriteFile(path, file.Bytes(), 0o644)
		}
		if err != nil {
			b.Fatal(err)
		}
		b.Run(format, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := iupt.ReadFile(path, format)
				if err != nil || len(got) != len(recs) {
					b.Fatalf("read %d of %d records: %v", len(got), len(recs), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
		})
	}
}
