package iupt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"tkplq/internal/indoor"
)

// CSV format, one record per line:
//
//	oid,t,loc1:prob1;loc2:prob2;...
//
// Binary format: little-endian; header magic "IUPT" + version, record count,
// then per record: oid (int32), t (int64), sample count (uint16) and
// (loc int32, prob float64) pairs.

// WriteCSV writes the table in the CSV format.
func (t *Table) WriteCSV(w io.Writer) error {
	recs := t.allRecords()
	bw := bufio.NewWriter(w)
	for i := range recs {
		if err := writeCSVRecord(bw, &recs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeCSVRecord encodes one record as a CSV line — the shared encoder
// behind Table.WriteCSV and the incremental CSVWriter, so both produce the
// same bytes for the same records.
func writeCSVRecord(bw *bufio.Writer, rec *Record) error {
	if _, err := fmt.Fprintf(bw, "%d,%d,", rec.OID, rec.T); err != nil {
		return err
	}
	for j, s := range rec.Samples {
		if j > 0 {
			if err := bw.WriteByte(';'); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "%d:%g", s.Loc, s.Prob); err != nil {
			return err
		}
	}
	return bw.WriteByte('\n')
}

// ReadFile loads a table from a file in the named format, "csv" or "bin"
// (the -format of gendata and the query tools; docs/FORMATS.md).
func ReadFile(path, format string) (*Table, error) {
	var read func(io.Reader) (*Table, error)
	switch format {
	case "csv":
		read = ReadCSV
	case "bin":
		read = ReadBinary
	default:
		return nil, fmt.Errorf("unknown format %q (want csv or bin)", format)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // only read
	return read(f)
}

// ReadCSV parses a table from the CSV format. Blank lines and lines starting
// with '#' are skipped.
func ReadCSV(r io.Reader) (*Table, error) {
	t := NewTable()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, ",", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("iupt: line %d: want 3 comma-separated fields", lineNo)
		}
		oid, err := strconv.ParseInt(parts[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("iupt: line %d: bad oid: %w", lineNo, err)
		}
		ts, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("iupt: line %d: bad timestamp: %w", lineNo, err)
		}
		var samples SampleSet
		for _, pair := range strings.Split(parts[2], ";") {
			lp := strings.SplitN(pair, ":", 2)
			if len(lp) != 2 {
				return nil, fmt.Errorf("iupt: line %d: bad sample %q", lineNo, pair)
			}
			loc, err := strconv.ParseInt(lp[0], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("iupt: line %d: bad loc: %w", lineNo, err)
			}
			prob, err := strconv.ParseFloat(lp[1], 64)
			if err != nil {
				return nil, fmt.Errorf("iupt: line %d: bad prob: %w", lineNo, err)
			}
			samples = append(samples, Sample{Loc: indoor.PLocID(loc), Prob: prob})
		}
		if err := samples.Validate(); err != nil {
			return nil, fmt.Errorf("iupt: line %d: %w", lineNo, err)
		}
		t.Append(Record{OID: ObjectID(oid), T: Time(ts), Samples: samples})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

const (
	binaryMagic   = "IUPT"
	binaryVersion = uint16(1)
)

// WriteBinary writes the table in the compact binary format.
func (t *Table) WriteBinary(w io.Writer) error {
	return WriteRecordsBinary(w, t.allRecords())
}

// WriteRecordsBinary writes a record slice in the compact binary format —
// the same bytes Table.WriteBinary produces for a table holding recs. It is
// the encoder behind cmd/gendata's -format bin output, whose files
// `tkplqd -iupt FILE -format bin` reads, also to seed a data directory; it
// wrote the snapshot files of legacy flat data directories too. The byte
// layout is specified in docs/FORMATS.md. recs should be in the table's
// canonical time-sorted order (Table.SortedRecords) so a reloaded table is
// bit-identical under queries.
func WriteRecordsBinary(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, binaryVersion); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(recs))); err != nil {
		return err
	}
	for i := range recs {
		if err := writeBinaryRecord(bw, i, &recs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeBinaryRecord encodes one record's binary frame — the shared encoder
// behind WriteRecordsBinary and the incremental BinaryWriter. idx only
// labels the error.
func writeBinaryRecord(bw *bufio.Writer, idx int, rec *Record) error {
	if len(rec.Samples) > math.MaxUint16 {
		return fmt.Errorf("iupt: record %d has %d samples, exceeding format limit", idx, len(rec.Samples))
	}
	if err := binary.Write(bw, binary.LittleEndian, int32(rec.OID)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(rec.T)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(len(rec.Samples))); err != nil {
		return err
	}
	for _, s := range rec.Samples {
		if err := binary.Write(bw, binary.LittleEndian, int32(s.Loc)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, s.Prob); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary parses a table from the binary format.
func ReadBinary(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("iupt: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("iupt: bad magic %q", magic)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("iupt: unsupported version %d", version)
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	t := NewTable()
	for i := uint64(0); i < count; i++ {
		var oid int32
		var ts int64
		var n uint16
		if err := binary.Read(br, binary.LittleEndian, &oid); err != nil {
			return nil, fmt.Errorf("iupt: record %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &ts); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		samples := make(SampleSet, n)
		for j := range samples {
			var loc int32
			if err := binary.Read(br, binary.LittleEndian, &loc); err != nil {
				return nil, err
			}
			if err := binary.Read(br, binary.LittleEndian, &samples[j].Prob); err != nil {
				return nil, err
			}
			samples[j].Loc = indoor.PLocID(loc)
		}
		if err := samples.Validate(); err != nil {
			return nil, fmt.Errorf("iupt: record %d: %w", i, err)
		}
		t.Append(Record{OID: ObjectID(oid), T: Time(ts), Samples: samples})
	}
	return t, nil
}
