package iupt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
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

// ReadFile reads the records of a file in the named format, "csv" or "bin"
// (the -format of gendata and the query tools; docs/FORMATS.md), in file
// order. The file is read whole, so the parser works on its bytes.
func ReadFile(path, format string) ([]Record, error) {
	if format != "csv" && format != "bin" {
		return nil, fmt.Errorf("unknown format %q (want csv or bin)", format)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if format == "csv" {
		return ReadCSV(bytes.NewReader(data))
	}
	return ReadBinary(data)
}

// ReadCSV parses records from the CSV format, in input order. Blank lines
// and lines starting with '#' are skipped.
func ReadCSV(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var arena sampleArena
	lineNo := 0
	for sc.Scan() {
		lineNo++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 || b[0] == '#' {
			continue
		}
		rec, err := parseCSVRecord(string(b), &arena)
		if err != nil {
			return nil, fmt.Errorf("iupt: line %d: %w", lineNo, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// sampleArena carves the sample sets of parsed records from shared blocks.
type sampleArena SampleSet

// take returns an empty sample set with room for n samples, capped there so
// that an append beyond n cannot reach the next set carved after it.
func (a *sampleArena) take(n int) SampleSet {
	if len(*a) < n {
		*a = make(sampleArena, max(n, 4096))
	}
	set := SampleSet((*a)[:0:n])
	*a = (*a)[n:]
	return set
}

// parseCSVRecord parses one trimmed, non-blank CSV line. Every field is a
// substring of line, so the line's string is the one copy of its bytes; the
// sample set, sized by the line's ';' count, comes from arena.
func parseCSVRecord(line string, arena *sampleArena) (Record, error) {
	oidField, rest, ok := strings.Cut(line, ",")
	tsField, samplesField, ok2 := strings.Cut(rest, ",")
	if !ok || !ok2 {
		return Record{}, errors.New("want 3 comma-separated fields")
	}
	oid, err := strconv.ParseInt(oidField, 10, 32)
	if err != nil {
		return Record{}, fmt.Errorf("bad oid: %w", err)
	}
	ts, err := strconv.ParseInt(tsField, 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("bad timestamp: %w", err)
	}
	samples := arena.take(strings.Count(samplesField, ";") + 1)
	for more := true; more; {
		var pair string
		pair, samplesField, more = strings.Cut(samplesField, ";")
		locField, probField, ok := strings.Cut(pair, ":")
		if !ok {
			return Record{}, fmt.Errorf("bad sample %q", pair)
		}
		loc, err := strconv.ParseInt(locField, 10, 32)
		if err != nil {
			return Record{}, fmt.Errorf("bad loc: %w", err)
		}
		prob, err := strconv.ParseFloat(probField, 64)
		if err != nil {
			return Record{}, fmt.Errorf("bad prob: %w", err)
		}
		samples = append(samples, Sample{Loc: indoor.PLocID(loc), Prob: prob})
	}
	if err := samples.Validate(); err != nil {
		return Record{}, err
	}
	return Record{OID: ObjectID(oid), T: Time(ts), Samples: samples}, nil
}

// The binary IUPT layout (docs/FORMATS.md). AppendRecord is its one record
// encoder and DecodeRecords its one decoder of a run of records;
// internal/wal frames its batch payloads with them too, so a WAL payload
// after its record count is byte for byte the body of a .bin file holding the
// same records.
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

// decodeRecord decodes the binary record at the front of b and returns it
// with its encoded length. Its sample set is the front of samples, which
// must hold the record's samples, capped at their count so that an append to
// it cannot reach past it; nothing aliases b. It is not validated: callers
// that read untrusted bytes validate it. b shorter than the record is
// io.ErrUnexpectedEOF.
func decodeRecord(b []byte, samples SampleSet) (Record, int, error) {
	if len(b) < recordHdrLen {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	k := int(binary.LittleEndian.Uint16(b[12:]))
	n := recordHdrLen + sampleLen*k
	if len(b) < n {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	samples = samples[:k:k]
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
	}, n, nil
}

// samplesIn returns how many samples the first count records of b hold, up
// to the first record b does not hold whole. However large count is, that is
// at most len(b)/sampleLen.
func samplesIn(b []byte, count uint64) int {
	total := 0
	for ; count > 0 && len(b) >= recordHdrLen; count-- {
		k := int(binary.LittleEndian.Uint16(b[12:]))
		n := recordHdrLen + sampleLen*k
		if len(b) < n {
			break
		}
		total += k
		b = b[n:]
	}
	return total
}

// DecodeRecords decodes a run of count records in the binary record
// layout that fills b exactly: the body of a .bin file after its header,
// and a WAL batch payload after its record count. count is untrusted, so
// the result is presized by it clamped to the records b can hold (at least
// recordHdrLen bytes each). The records' sample sets are consecutive pieces
// of one array, sized by the record headers b holds whole (samplesIn), each
// capped so that an append to one set cannot overwrite the next. With
// validate every sample set must also pass Validate. It returns the records,
// or where the run is bad; each caller words that in its own error.
func DecodeRecords(b []byte, count uint64, validate bool) ([]Record, *BadRun) {
	recs := make([]Record, 0, min(count, uint64(len(b)/recordHdrLen)))
	samples := make(SampleSet, samplesIn(b, count))
	for i := uint64(0); i < count; i++ {
		rec, n, err := decodeRecord(b, samples)
		if err == nil && validate {
			err = rec.Samples.Validate()
		}
		if err != nil {
			return nil, &BadRun{Record: i, Err: err}
		}
		recs = append(recs, rec)
		samples = samples[len(rec.Samples):]
		b = b[n:]
	}
	if len(b) > 0 {
		return nil, &BadRun{Trailing: len(b)}
	}
	return recs, nil
}

// BadRun is where DecodeRecords refused a run: Err for its first record
// (index Record) that is short or fails validation, or else Trailing bytes
// left over after the last record.
type BadRun struct {
	Record   uint64
	Err      error
	Trailing int
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

// ReadBinary parses the records of a file in the binary format, in file
// order: the header must match, and the body must be exactly the header's
// count of records, every sample set valid.
func ReadBinary(data []byte) ([]Record, error) {
	if len(data) < binaryHdrLen {
		return nil, fmt.Errorf("iupt: reading header: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:4]) != binaryMagic {
		return nil, fmt.Errorf("iupt: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != binaryVersion {
		return nil, fmt.Errorf("iupt: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint64(data[6:])
	recs, bad := DecodeRecords(data[binaryHdrLen:], count, true)
	switch {
	case bad == nil:
		return recs, nil
	case bad.Err != nil:
		return nil, fmt.Errorf("iupt: record %d: %w", bad.Record, bad.Err)
	default:
		return nil, fmt.Errorf("iupt: %d trailing bytes after the %d records the header declares", bad.Trailing, count)
	}
}
