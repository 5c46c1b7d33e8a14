package server

import (
	"encoding/binary"
	"fmt"
	"math"

	"tkplq/internal/core"
	"tkplq/internal/iupt"
)

// The 200 body of POST /v2/partial is one shard's core.Partial, little-endian
// (docs/FORMATS.md § "Shard partial body"): magic "TKR" + version 1; records
// (uint64); the 13 Stats fields in StatsJSON order (int64); n and cols
// (uint32); n strictly ascending object ids (int64); then per row a uint32
// count and that many (col uint32, math.Float64bits uint64) cells, columns
// strictly ascending. A cell is omitted exactly when its bits are 0 (+0.0),
// so a decoded row is the shard's bit for bit, −0.0 included. The encoding is
// canonical: decodePartial refuses every body encodePartial would not write.
const (
	partialMagic   = "TKR\x01"
	partialStats   = 13 // Stats fields carried
	partialHeadLen = len(partialMagic) + 8 + partialStats*8 + 4 + 4
	partialObjLen  = 8 + 4 // an object's least share of the body: id + row count
	partialCellLen = 4 + 8
)

// statsFields lists st's fields in StatsJSON order, the order the body
// carries them.
func statsFields(st *core.Stats) [partialStats]any {
	return [partialStats]any{
		&st.ObjectsTotal, &st.ObjectsComputed, &st.PathsEnumerated, &st.BudgetFallbacks,
		&st.SampleSetsOriginal, &st.SampleSetsReduced, &st.HeapPops, &st.SequenceBreaks,
		&st.Workers, &st.CacheHits, &st.CacheMisses, &st.Coalesced, &st.SharedBatch,
	}
}

// encodePartial writes p, evaluated over cols columns from a table of records
// records, as a /v2/partial body in one allocation of its final size.
func encodePartial(p *core.Partial, cols, records int) []byte {
	cells := 0
	for _, row := range p.Rows {
		for _, v := range row {
			if math.Float64bits(v) != 0 {
				cells++
			}
		}
	}
	le := binary.LittleEndian
	b := make([]byte, 0, partialHeadLen+partialObjLen*len(p.OIDs)+partialCellLen*cells)
	b = append(b, partialMagic...)
	b = le.AppendUint64(b, uint64(records))
	for _, f := range statsFields(&p.Stats) {
		switch f := f.(type) {
		case *int:
			b = le.AppendUint64(b, uint64(*f))
		case *int64:
			b = le.AppendUint64(b, uint64(*f))
		}
	}
	b = le.AppendUint32(b, uint32(len(p.OIDs)))
	b = le.AppendUint32(b, uint32(cols))
	for _, oid := range p.OIDs {
		b = le.AppendUint64(b, uint64(oid))
	}
	for _, row := range p.Rows {
		at, count := len(b), uint32(0)
		b = le.AppendUint32(b, 0)
		for j, v := range row {
			if bits := math.Float64bits(v); bits != 0 {
				b = le.AppendUint32(b, uint32(j))
				b = le.AppendUint64(b, bits)
				count++
			}
		}
		le.PutUint32(b[at:], count)
	}
	return b
}

// decodePartial parses a /v2/partial body answering a request for cols
// columns and returns the partial and the shard's record count. It trusts
// nothing in b: every count is checked against the bytes that remain before
// anything is allocated for it, and the rows are carved from one []float64.
func decodePartial(b []byte, cols int) (*core.Partial, int, error) {
	if len(b) < partialHeadLen {
		return nil, 0, fmt.Errorf("partial body of %d bytes is shorter than its %d-byte header", len(b), partialHeadLen)
	}
	if string(b[:len(partialMagic)]) != partialMagic {
		return nil, 0, fmt.Errorf("not a version-1 partial body (starts %q)", b[:len(partialMagic)])
	}
	le := binary.LittleEndian
	off := len(partialMagic)
	records := le.Uint64(b[off:])
	if records > math.MaxInt {
		return nil, 0, fmt.Errorf("partial claims %d records", records)
	}
	off += 8
	p := &core.Partial{}
	for _, f := range statsFields(&p.Stats) {
		v := int64(le.Uint64(b[off:]))
		switch f := f.(type) {
		case *int:
			*f = int(v)
		case *int64:
			*f = v
		}
		off += 8
	}
	n, gotCols := int(le.Uint32(b[off:])), int(le.Uint32(b[off+4:]))
	off += 8
	if gotCols != cols {
		return nil, 0, fmt.Errorf("partial has %d columns, the request asked for %d", gotCols, cols)
	}
	if most := (len(b) - off) / partialObjLen; n > most {
		return nil, 0, fmt.Errorf("partial declares %d objects, its remaining %d bytes hold at most %d", n, len(b)-off, most)
	}
	p.OIDs = make([]iupt.ObjectID, n)
	for i := range p.OIDs {
		id := int64(le.Uint64(b[off:]))
		off += 8
		if id < math.MinInt32 || id > math.MaxInt32 {
			return nil, 0, fmt.Errorf("partial object id %d out of range", id)
		}
		if i > 0 && iupt.ObjectID(id) <= p.OIDs[i-1] {
			return nil, 0, fmt.Errorf("partial object ids not strictly ascending: %d after %d", id, p.OIDs[i-1])
		}
		p.OIDs[i] = iupt.ObjectID(id)
	}
	flat := make([]float64, n*cols)
	p.Rows = make([][]float64, n)
	for i := range p.Rows {
		row := flat[i*cols : (i+1)*cols : (i+1)*cols]
		if len(b)-off < 4 {
			return nil, 0, fmt.Errorf("partial truncated in row %d", i)
		}
		count := int(le.Uint32(b[off:]))
		off += 4
		if count > (len(b)-off)/partialCellLen {
			return nil, 0, fmt.Errorf("partial row %d declares %d cells, only %d bytes remain", i, count, len(b)-off)
		}
		last := -1
		for k := 0; k < count; k++ {
			c, bits := int(le.Uint32(b[off:])), le.Uint64(b[off+4:])
			off += partialCellLen
			if c <= last || c >= cols {
				return nil, 0, fmt.Errorf("partial row %d: column %d out of order or range (previous %d, %d columns)", i, c, last, cols)
			}
			if bits == 0 {
				return nil, 0, fmt.Errorf("partial row %d: column %d carries an explicit +0.0", i, c)
			}
			row[c] = math.Float64frombits(bits)
			last = c
		}
		p.Rows[i] = row
	}
	if off != len(b) {
		return nil, 0, fmt.Errorf("partial body has %d trailing bytes", len(b)-off)
	}
	return p, int(records), nil
}
