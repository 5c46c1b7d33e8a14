package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// fuzzSegment builds a log segment image from batches of records, using the
// same encoding AppendBatch writes.
func fuzzSegment(tb testing.TB, batches ...[]iupt.Record) []byte {
	tb.Helper()
	seg := []byte(segMagic)
	seg = binary.LittleEndian.AppendUint16(seg, segVersion)
	for _, recs := range batches {
		frame, err := encodeFrame(recs)
		if err != nil {
			tb.Fatal(err)
		}
		seg = append(seg, frame...)
	}
	return seg
}

// FuzzWALReplay feeds arbitrary bytes to the segment replayer and checks the
// recovery invariants on untrusted input: replay never panics, never claims a
// valid offset past the file, and the records it reports are exactly the
// records it appended — whether the tail is tolerated (active segment) or not
// (sealed segment).
func FuzzWALReplay(f *testing.F) {
	recs := []iupt.Record{
		{OID: 1, T: 10, Samples: iupt.SampleSet{{Loc: indoor.PLocID(3), Prob: 0.5}, {Loc: indoor.PLocID(4), Prob: 0.5}}},
		{OID: 2, T: 11, Samples: iupt.SampleSet{{Loc: indoor.PLocID(5), Prob: 1}}},
	}
	valid := fuzzSegment(f, recs[:1], recs[1:])
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn final frame
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x10
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(fuzzSegment(f)) // header only
	// A frame header promising a payload far past EOF.
	bomb := fuzzSegment(f)
	bomb = binary.LittleEndian.AppendUint32(bomb, maxFrameLen-1)
	bomb = binary.LittleEndian.AppendUint32(bomb, 0)
	f.Add(bomb)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal-00000000.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		for _, tolerateTorn := range []bool{true, false} {
			table := iupt.NewTable()
			frames, records, validOff, tornBytes, corruptFrames, err := replaySegment(path, table, tolerateTorn)
			if err != nil {
				continue // refused loudly: fine
			}
			if validOff < 0 || validOff > int64(len(data)) {
				t.Fatalf("validOff %d outside [0,%d]", validOff, len(data))
			}
			if frames < 0 || records < 0 || tornBytes < 0 || corruptFrames < 0 {
				t.Fatalf("negative counters: frames=%d records=%d torn=%d corrupt=%d",
					frames, records, tornBytes, corruptFrames)
			}
			if int64(table.Len()) != records {
				t.Fatalf("table holds %d records, replay reported %d", table.Len(), records)
			}
		}
	})
}
