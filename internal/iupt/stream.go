package iupt

import (
	"bufio"
	"fmt"
	"io"
)

// Incremental table writers. Table.WriteCSV/WriteBinary need the whole
// record slice in memory; CSVWriter and BinaryWriter accept one record at a
// time and produce byte-identical output (they share the per-record
// encoders, writeCSVRecord and AppendRecord, and the binary header writer),
// so cmd/gendata can stream an arbitrarily large dataset to a file without
// ever materializing the table. Callers are responsible for feeding
// records in the canonical time-sorted order if the file is meant to load
// bit-identically under queries.

// CSVWriter writes records one at a time in the CSV format.
type CSVWriter struct {
	bw *bufio.Writer
}

// NewCSVWriter wraps w; call Flush when done.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{bw: bufio.NewWriter(w)}
}

// Write appends one record line.
func (cw *CSVWriter) Write(rec Record) error {
	return writeCSVRecord(cw.bw, &rec)
}

// Flush drains buffered output to the underlying writer.
func (cw *CSVWriter) Flush() error {
	return cw.bw.Flush()
}

// BinaryWriter writes records one at a time in the compact binary format.
// The header's record count is not known upfront, so NewBinaryWriter writes
// a header for zero records and Close seeks back to rewrite it with the real
// count — the destination must be seekable (a regular file). The finished
// file is byte for byte what WriteRecordsBinary would have produced.
type BinaryWriter struct {
	ws    io.WriteSeeker
	bw    *bufio.Writer
	buf   []byte // one record's encoding, reused
	count uint64
}

// NewBinaryWriter writes the header (with a placeholder count) and returns
// the writer. Call Close when done to commit the count.
func NewBinaryWriter(ws io.WriteSeeker) (*BinaryWriter, error) {
	w := &BinaryWriter{ws: ws, bw: bufio.NewWriter(ws)}
	if _, err := w.bw.Write(appendBinaryHeader(nil, 0)); err != nil {
		return nil, err
	}
	return w, nil
}

// Write appends one record.
func (w *BinaryWriter) Write(rec Record) error {
	var err error
	if w.buf, err = AppendRecord(w.buf[:0], &rec); err != nil {
		return fmt.Errorf("iupt: record %d: %w", w.count, err)
	}
	if _, err := w.bw.Write(w.buf); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count reports the records written so far.
func (w *BinaryWriter) Count() uint64 { return w.count }

// Close flushes buffered records and rewrites the header with the real
// record count. The underlying file is left positioned at its end and still
// open — closing it (and fsyncing, if the caller needs durability) stays
// with the caller.
func (w *BinaryWriter) Close() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	end, err := w.ws.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("iupt: seeking end: %w", err)
	}
	if _, err := w.ws.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("iupt: seeking header: %w", err)
	}
	if _, err := w.ws.Write(appendBinaryHeader(nil, w.count)); err != nil {
		return fmt.Errorf("iupt: rewriting header: %w", err)
	}
	if _, err := w.ws.Seek(end, io.SeekStart); err != nil {
		return fmt.Errorf("iupt: restoring position: %w", err)
	}
	return nil
}
