package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"tkplq/internal/core"
	"tkplq/internal/iupt"
)

// wireCase is one partial the codec must carry, and the shard's record count
// beside it.
type wireCase struct {
	name    string
	p       *core.Partial
	records int
}

// specialFloats are the values a naive float codec gets wrong.
var specialFloats = []float64{
	math.Copysign(0, -1),
	math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), // largest subnormal
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8_0000_dead_beef), // quiet NaN with a payload
	math.Float64frombits(0xfff0_0000_0000_0001), // negative signalling NaN
	0.1, 1, 1.9700000000000002,
}

// randomPartial builds an n-object, cols-column partial whose cells are
// mostly +0.0, as a short window's are, with a sprinkling of special values.
func randomPartial(r *rand.Rand, n, cols int) *core.Partial {
	p := &core.Partial{OIDs: make([]iupt.ObjectID, n), Cols: cols, Rows: make([]float64, n*cols)}
	id := iupt.ObjectID(r.Intn(100) - 50)
	for i := range p.OIDs {
		id += iupt.ObjectID(1 + r.Intn(1000))
		p.OIDs[i] = id
		for j := range cols {
			switch x := r.Float64(); {
			case x < 0.8:
			case x < 0.9:
				p.Rows[i*cols+j] = r.Float64() * 3
			default:
				p.Rows[i*cols+j] = specialFloats[r.Intn(len(specialFloats))]
			}
		}
	}
	for _, f := range statsFields(&p.Stats) {
		switch f := f.(type) {
		case *int:
			*f = int(r.Int63()) - math.MaxInt64/2
		case *int64:
			*f = r.Int63() - math.MaxInt64/2
		}
	}
	return p
}

func wireCases() []wireCase {
	r := rand.New(rand.NewSource(1))
	allSpecial := &core.Partial{OIDs: []iupt.ObjectID{math.MinInt32, -1, 0, math.MaxInt32}, Cols: 3, Rows: specialFloats[:12]}
	cases := []wireCase{
		{name: "empty", p: &core.Partial{Cols: 86}},
		{name: "empty-flow", p: &core.Partial{OIDs: []iupt.ObjectID{}, Cols: 1, Rows: []float64{}}, records: 1},
		{name: "all-zero-rows", p: &core.Partial{OIDs: []iupt.ObjectID{1, 2}, Cols: 86, Rows: make([]float64, 2*86)}, records: 40},
		{name: "special-values", p: allSpecial, records: math.MaxInt},
		{name: "flow", p: randomPartial(r, 20, 1), records: 680},
	}
	for k := 0; k < 8; k++ {
		n, cols := r.Intn(40), 1+r.Intn(86)
		if k%2 == 0 {
			cols = 86
		}
		cases = append(cases, wireCase{name: fmt.Sprintf("random-%d", k), p: randomPartial(r, n, cols), records: r.Intn(1 << 30)})
	}
	return cases
}

// TestPartialWireRoundTrip: a decoded body is the encoded partial bit for bit
// — ids, every cell's Float64bits (−0.0, subnormals, infinities and NaN
// payloads included), every Stats field and the record count.
func TestPartialWireRoundTrip(t *testing.T) {
	for _, tc := range wireCases() {
		body := encodePartial(tc.p, tc.records)
		if len(body) != cap(body) {
			t.Errorf("%s: body of %d bytes allocated %d", tc.name, len(body), cap(body))
		}
		got, records, err := decodePartial(body, tc.p.Cols)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if records != tc.records {
			t.Errorf("%s: records %d, want %d", tc.name, records, tc.records)
		}
		if got.Stats != tc.p.Stats {
			t.Errorf("%s: stats\n got %+v\nwant %+v", tc.name, got.Stats, tc.p.Stats)
		}
		if got.Cols != tc.p.Cols || len(got.OIDs) != len(tc.p.OIDs) || len(got.Rows) != len(tc.p.Rows) {
			t.Fatalf("%s: %d oids and %d cells over %d columns, want %d, %d and %d",
				tc.name, len(got.OIDs), len(got.Rows), got.Cols, len(tc.p.OIDs), len(tc.p.Rows), tc.p.Cols)
		}
		for i, oid := range tc.p.OIDs {
			if got.OIDs[i] != oid {
				t.Errorf("%s: oid %d = %d, want %d", tc.name, i, got.OIDs[i], oid)
			}
		}
		for c, v := range tc.p.Rows {
			if g := got.Rows[c]; math.Float64bits(g) != math.Float64bits(v) {
				t.Errorf("%s: cell (%d, %d) = %#x, want %#x", tc.name, c/tc.p.Cols, c%tc.p.Cols, math.Float64bits(g), math.Float64bits(v))
			}
		}
	}
}

// rejectBase is a valid body whose layout the rejection cases patch: objects
// 7 and 9 over 4 columns, row 0 holding cells in columns 1 and 2, row 1 none.
func rejectBase() (body []byte, cols int) {
	p := &core.Partial{OIDs: []iupt.ObjectID{7, 9}, Cols: 4, Rows: []float64{0, 0.5, 0.25, 0, 0, 0, 0, 0}}
	return encodePartial(p, 10), 4
}

// Byte offsets into rejectBase's body.
const (
	rbRecords = len(partialMagic)
	rbN       = partialHeadLen - 8
	rbCols    = partialHeadLen - 4
	rbID0     = partialHeadLen
	rbID1     = rbID0 + 8
	rbRow0    = rbID1 + 8 // count, then cells at +4 and +16
	rbCell0   = rbRow0 + 4
	rbCell1   = rbCell0 + partialCellLen
)

func patched(edit func(b []byte) []byte) []byte {
	b, _ := rejectBase()
	return edit(b)
}

func put32(off int, v uint32) func([]byte) []byte {
	return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[off:], v); return b }
}

func put64(off int, v uint64) func([]byte) []byte {
	return func(b []byte) []byte { binary.LittleEndian.PutUint64(b[off:], v); return b }
}

// rejectCase is a body every decoder must refuse when asked for cols
// columns, with a fragment of the error that names why.
type rejectCase struct {
	name string
	body []byte
	cols int
	want string
}

func rejectCases() []rejectCase {
	_, cols := rejectBase()
	old, err := json.Marshal(map[string]any{
		"oids": []int64{7, 9}, "rows": [][]float64{{0, 0.5, 0.25, 0}, {0, 0, 0, 0}},
		"stats": StatsJSON{ObjectsTotal: 2, ObjectsComputed: 2, Workers: 1}, "records": 10,
	})
	if err != nil {
		panic(err)
	}
	same := func(b []byte) []byte { return b }
	return []rejectCase{
		{"magic", patched(func(b []byte) []byte { b[0] = 'X'; return b }), cols, "not a version-1"},
		{"version", patched(func(b []byte) []byte { b[3] = 2; return b }), cols, "not a version-1"},
		{"json-rows-of-old", old, cols, "not a version-1"},
		{"short-header", []byte(partialMagic), cols, "shorter than its"},
		{"trailing", patched(func(b []byte) []byte { return append(b, 0) }), cols, "trailing"},
		{"cols-fewer", patched(same), cols - 1, "the request asked for"},
		{"cols-more", patched(same), cols + 1, "the request asked for"},
		{"cols-header", patched(put32(rbCols, 5)), cols, "the request asked for"},
		{"column-out-of-range", patched(put32(rbCell1, uint32(cols))), cols, "out of order or range"},
		{"column-huge", patched(put32(rbCell1, math.MaxUint32)), cols, "out of order or range"},
		{"columns-repeated", patched(put32(rbCell1, 1)), cols, "out of order or range"},
		{"columns-descending", patched(put32(rbCell1, 0)), cols, "out of order or range"},
		{"explicit-plus-zero", patched(put64(rbCell0+4, 0)), cols, "explicit +0.0"},
		{"ids-descending", patched(put64(rbID1, 6)), cols, "not strictly ascending"},
		{"ids-duplicated", patched(put64(rbID1, 7)), cols, "not strictly ascending"},
		{"id-out-of-range", patched(put64(rbID1, 1<<40)), cols, "out of range"},
		{"n-past-what-the-body-holds", patched(put32(rbN, 5)), cols, "hold at most 4"},
		{"n-huge", patched(put32(rbN, math.MaxUint32)), cols, "hold at most"},
		{"row-cells-past-the-body", patched(put32(rbRow0, math.MaxUint32)), cols, "cells, only"},
		{"records-overflow", patched(put64(rbRecords, math.MaxUint64)), cols, "records"},
	}
}

// TestPartialWireRejects: every malformed body — including every truncation
// of a valid one — is an error, never a panic or a partial answer.
func TestPartialWireRejects(t *testing.T) {
	base, cols := rejectBase()
	if _, _, err := decodePartial(base, cols); err != nil {
		t.Fatalf("base body refused: %v", err)
	}
	for _, tc := range rejectCases() {
		if p, _, err := decodePartial(tc.body, tc.cols); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, p)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not say %q", tc.name, err, tc.want)
		}
	}
	for _, tc := range wireCases() {
		body := encodePartial(tc.p, tc.records)
		for cut := 0; cut < len(body); cut++ {
			if _, _, err := decodePartial(body[:cut], tc.p.Cols); err == nil {
				t.Fatalf("%s: truncation at byte %d of %d accepted", tc.name, cut, len(body))
			}
		}
	}
}

// FuzzPartialDecode feeds arbitrary bytes to the partial decoder: it must
// never panic, and a body it accepts must be the canonical encoding of what it
// decoded — the encoder writes exactly those bytes back.
func FuzzPartialDecode(f *testing.F) {
	for _, tc := range wireCases() {
		if tc.p.Cols <= math.MaxUint8 {
			f.Add(encodePartial(tc.p, tc.records), uint8(tc.p.Cols))
		}
	}
	for _, tc := range rejectCases() {
		f.Add(tc.body, uint8(tc.cols))
	}
	// cols is a uint8 so a fuzzed body cannot make the decoder allocate
	// rows far wider than any space's S-location count.
	f.Fuzz(func(t *testing.T, body []byte, cols uint8) {
		p, records, err := decodePartial(body, int(cols))
		if err != nil {
			return
		}
		if p.Cols != int(cols) || len(p.Rows) != len(p.OIDs)*p.Cols {
			t.Fatalf("%d oids and %d cells over %d columns, want %d columns", len(p.OIDs), len(p.Rows), p.Cols, cols)
		}
		if again := encodePartial(p, records); !bytes.Equal(again, body) {
			t.Fatalf("accepted body does not re-encode to itself:\n got %x\nwant %x", again, body)
		}
	})
}

// TestShardCallRefusesOversizedBody: a member answering one byte more than
// MaxBodyBytes fails the call with an error naming the limit — whether
// it declares its length or streams it chunked — instead of handing the
// router a body cut at the limit. A body of exactly the limit still arrives.
func TestShardCallRefusesOversizedBody(t *testing.T) {
	for _, declared := range []bool{true, false} {
		for _, size := range []int{MaxBodyBytes, MaxBodyBytes + 1} {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if declared {
					w.Header().Set("Content-Length", strconv.Itoa(size))
				}
				chunk := bytes.Repeat([]byte{' '}, 64<<10)
				for left := size; left > 0; left -= len(chunk) {
					_, _ = w.Write(chunk[:min(left, len(chunk))])
				}
			}))
			c := newShardClient(0, 0, strings.TrimPrefix(ts.URL, "http://"), 10*time.Second)
			raw, err := c.stats(context.Background())
			ts.Close()
			name := fmt.Sprintf("declared=%v size=%d", declared, size)
			switch {
			case size <= MaxBodyBytes && err != nil:
				t.Errorf("%s: %v", name, err)
			case size <= MaxBodyBytes && len(raw) != size:
				t.Errorf("%s: read %d bytes", name, len(raw))
			case size > MaxBodyBytes && err == nil:
				t.Errorf("%s: accepted %d bytes", name, len(raw))
			case size > MaxBodyBytes && !strings.Contains(err.Error(), fmt.Sprintf("%d-byte limit", MaxBodyBytes)):
				t.Errorf("%s: error does not name the limit: %v", name, err)
			}
		}
	}
}

// TestRouterRefusesForeignPartialBody: a member of another build answering
// /v2/partial with 200 and the JSON rows of old is a failed leg — the router
// answers the degraded 503 naming that shard, never a 200 built from a body
// it could not read.
func TestRouterRefusesForeignPartialBody(t *testing.T) {
	c := startCluster(t, synB.Space, newSynSystem(t).Table(), 2)
	inner := c.slots[1].h
	c.slots[1].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/partial" {
			inner.ServeHTTP(w, r)
			return
		}
		writeJSON(w, map[string]any{
			"oids":    []int64{3},
			"rows":    [][]float64{{0.25}},
			"stats":   StatsJSON{ObjectsTotal: 1, ObjectsComputed: 1, Workers: 1},
			"records": 1,
		})
	}))
	addr := strings.TrimPrefix(c.shardTS[1].URL, "http://")
	resp, body := postJSON(t, c.routerTS.Client(), c.routerTS.URL+"/v2/query", map[string]any{"kind": "topk", "k": 3, "te": 900})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", resp.StatusCode, body)
	}
	var env struct {
		Error    string       `json:"error"`
		Degraded DegradedJSON `json:"degraded"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("degraded envelope: %v (%s)", err, body)
	}
	if env.Degraded.Shard != 1 || env.Degraded.Addr != addr || !strings.Contains(env.Degraded.Cause, "decoding partial") {
		t.Fatalf("degraded envelope does not name the foreign shard: %s", body)
	}
}
