package iupt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"tkplq/internal/indoor"
)

// CSV format, one record per line:
//
//	oid,t,loc1:prob1;loc2:prob2;...

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

// The binary IUPT layout (docs/FORMATS.md). AppendRecord and DecodeRecord
// are its one record encoder and decoder; internal/wal frames its batch
// payloads with them too, so a WAL payload after its record count is byte
// for byte the body of a .bin file holding the same records.
const (
	binaryMagic   = "IUPT"
	binaryVersion = uint16(1)
	binaryHdrLen  = 14 // magic, version, record count uint64
	recordHdrLen  = 14 // oid int32, t int64, sample count uint16
	sampleLen     = 12 // loc int32, prob float64
)

// appendBinaryHeader appends the .bin header for count records.
func appendBinaryHeader(dst []byte, count uint64) []byte {
	dst = append(dst, binaryMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, binaryVersion)
	return binary.LittleEndian.AppendUint64(dst, count)
}

// EncodedLen returns the length of rec in the binary record layout.
func EncodedLen(rec *Record) int { return recordHdrLen + sampleLen*len(rec.Samples) }

// AppendRecord appends rec to dst in the binary record layout: oid int32,
// t int64, sample count uint16, then (loc int32, prob float64) per sample,
// probabilities as raw IEEE-754 bits. It fails only for a sample set longer
// than the uint16 count can say; the error leaves naming the record to the
// caller.
func AppendRecord(dst []byte, rec *Record) ([]byte, error) {
	if len(rec.Samples) > math.MaxUint16 {
		return dst, fmt.Errorf("%d samples exceed the binary record format's %d", len(rec.Samples), math.MaxUint16)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.OID))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.T))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.Samples)))
	for _, s := range rec.Samples {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Loc))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Prob))
	}
	return dst, nil
}

// recordLen returns the encoded length of the record whose header starts b;
// b must hold at least recordHdrLen bytes.
func recordLen(b []byte) int {
	return recordHdrLen + sampleLen*int(binary.LittleEndian.Uint16(b[12:]))
}

// DecodeRecord decodes the binary record at the front of b and returns it
// with its encoded length. The sample set is freshly allocated (nothing
// aliases b) and not validated: callers that read untrusted bytes validate
// it. b shorter than the record is io.ErrUnexpectedEOF.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < recordHdrLen || len(b) < recordLen(b) {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	samples := make(SampleSet, binary.LittleEndian.Uint16(b[12:]))
	for j := range samples {
		s := b[recordHdrLen+sampleLen*j:]
		samples[j] = Sample{
			Loc:  indoor.PLocID(int32(binary.LittleEndian.Uint32(s))),
			Prob: math.Float64frombits(binary.LittleEndian.Uint64(s[4:])),
		}
	}
	return Record{
		OID:     ObjectID(int32(binary.LittleEndian.Uint32(b))),
		T:       Time(int64(binary.LittleEndian.Uint64(b[4:]))),
		Samples: samples,
	}, recordLen(b), nil
}

// WriteBinary writes the table in the compact binary format.
func (t *Table) WriteBinary(w io.Writer) error {
	return WriteRecordsBinary(w, t.allRecords())
}

// WriteRecordsBinary writes a record slice in the compact binary format —
// the same bytes Table.WriteBinary produces for a table holding recs. It is
// the encoder behind cmd/gendata's -format bin output to a pipe, whose
// files `tkplqd -iupt FILE -format bin` reads, also to seed a data
// directory. recs should be in the table's canonical time-sorted order
// (Table.SortedRecords) so a reloaded table is bit-identical under queries.
func WriteRecordsBinary(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	buf := appendBinaryHeader(nil, uint64(len(recs)))
	for i := range recs {
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		var err error
		if buf, err = AppendRecord(buf[:0], &recs[i]); err != nil {
			return fmt.Errorf("iupt: record %d: %w", i, err)
		}
	}
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary parses a table from the binary format, one record at a time:
// the header must match, every sample set must validate, and the stream
// must end exactly after the header's record count.
func ReadBinary(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	buf := make([]byte, binaryHdrLen, 256)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("iupt: reading header: %w", err)
	}
	if string(buf[:4]) != binaryMagic {
		return nil, fmt.Errorf("iupt: bad magic %q", buf[:4])
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != binaryVersion {
		return nil, fmt.Errorf("iupt: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint64(buf[6:])
	t := NewTable()
	for i := uint64(0); i < count; i++ {
		buf = buf[:recordHdrLen]
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("iupt: record %d: %w", i, err)
		}
		n := recordLen(buf)
		buf = slices.Grow(buf, n-recordHdrLen)[:n]
		if _, err := io.ReadFull(br, buf[recordHdrLen:]); err != nil {
			return nil, fmt.Errorf("iupt: record %d: %w", i, err)
		}
		rec, _, err := DecodeRecord(buf)
		if err == nil {
			err = rec.Samples.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("iupt: record %d: %w", i, err)
		}
		t.Append(rec)
	}
	extra, err := io.Copy(io.Discard, br)
	if err != nil {
		return nil, err
	}
	if extra > 0 {
		return nil, fmt.Errorf("iupt: %d trailing bytes after the %d records the header declares", extra, count)
	}
	return t, nil
}
