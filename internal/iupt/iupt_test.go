package iupt

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"tkplq/internal/indoor"
)

func mkSet(pairs ...float64) SampleSet {
	// pairs alternates loc, prob.
	var out SampleSet
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, Sample{Loc: indoor.PLocID(pairs[i]), Prob: pairs[i+1]})
	}
	return out
}

func TestSampleSetValidate(t *testing.T) {
	cases := []struct {
		name string
		x    SampleSet
		ok   bool
	}{
		{"valid single", mkSet(1, 1.0), true},
		{"valid pair", mkSet(1, 0.4, 2, 0.6), true},
		{"empty", SampleSet{}, false},
		{"sum below one", mkSet(1, 0.3, 2, 0.3), false},
		{"sum above one", mkSet(1, 0.8, 2, 0.8), false},
		{"zero prob", mkSet(1, 0.0, 2, 1.0), false},
		{"negative prob", mkSet(1, -0.5, 2, 1.5), false},
		{"NaN prob", mkSet(1, math.NaN()), false},
		{"duplicate loc", mkSet(1, 0.5, 1, 0.5), false},
		{"tolerated rounding", mkSet(1, 0.3333333, 2, 0.3333333, 3, 0.3333334), true},
	}
	for _, c := range cases {
		err := c.x.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, ok = %v", c.name, err, c.ok)
		}
	}
}

func TestSampleSetHelpers(t *testing.T) {
	x := mkSet(5, 0.2, 3, 0.5, 9, 0.3)
	if s := x.MaxProbSample(); s.Loc != 3 {
		t.Errorf("MaxProbSample = %v", s)
	}
	sorted := x.Sorted()
	if sorted[0].Loc != 3 || sorted[1].Loc != 5 || sorted[2].Loc != 9 {
		t.Errorf("Sorted = %v", sorted)
	}
	// Clone independence.
	c := x.Clone()
	c[0].Prob = 0.9
	if x[0].Prob == 0.9 {
		t.Error("Clone should not alias")
	}
	// Normalize.
	n := mkSet(1, 2, 2, 2)
	n.Normalize()
	if n[0].Prob != 0.5 || n[1].Prob != 0.5 {
		t.Errorf("Normalize = %v", n)
	}
}

func TestMaxProbSampleTie(t *testing.T) {
	x := mkSet(7, 0.5, 2, 0.5)
	if s := x.MaxProbSample(); s.Loc != 7 {
		t.Errorf("tie should keep first sample, got %v", s)
	}
}

func TestTableBasics(t *testing.T) {
	tb := NewTable()
	tb.Append(Record{OID: 2, T: 30, Samples: mkSet(1, 1.0)})
	tb.Append(Record{OID: 1, T: 10, Samples: mkSet(2, 1.0)})
	tb.Append(Record{OID: 1, T: 20, Samples: mkSet(3, 0.5, 4, 0.5)})
	if tb.Len() != 3 {
		t.Fatalf("Len = %d", tb.Len())
	}
	lo, hi, ok := tb.TimeSpan()
	if !ok || lo != 10 || hi != 30 {
		t.Errorf("TimeSpan = %d..%d ok=%v", lo, hi, ok)
	}
	if first := tb.SortedRecords()[0].T; first != 10 {
		t.Errorf("records should be time-sorted, first T = %d", first)
	}
	objs := tb.Objects()
	if !reflect.DeepEqual(objs, []ObjectID{1, 2}) {
		t.Errorf("Objects = %v", objs)
	}
	for _, rec := range tb.SortedRecords() {
		if err := rec.Samples.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
	}
}

func TestTableRangeQuery(t *testing.T) {
	tb := NewTable()
	for i := 0; i < 100; i++ {
		tb.Append(Record{OID: ObjectID(i % 5), T: Time(i), Samples: mkSet(1, 1.0)})
	}
	if count := len(tb.RecordsInRange(10, 19)); count != 10 {
		t.Errorf("RecordsInRange count = %d, want 10", count)
	}
}

func TestSequencesInRange(t *testing.T) {
	tb := NewTable()
	tb.Append(Record{OID: 1, T: 5, Samples: mkSet(1, 1.0)})
	tb.Append(Record{OID: 1, T: 1, Samples: mkSet(2, 1.0)})
	tb.Append(Record{OID: 2, T: 3, Samples: mkSet(3, 1.0)})
	tb.Append(Record{OID: 1, T: 99, Samples: mkSet(4, 1.0)}) // outside range
	seqs := tb.SequencesInRange(0, 10)
	if len(seqs) != 2 {
		t.Fatalf("sequences = %d, want 2", len(seqs))
	}
	s1 := seqs[1]
	if len(s1) != 2 || s1[0].T != 1 || s1[1].T != 5 {
		t.Errorf("object 1 sequence = %v", s1)
	}
	if len(seqs[2]) != 1 {
		t.Errorf("object 2 sequence = %v", seqs[2])
	}
}

func TestValidateRejectsBadTable(t *testing.T) {
	tb := NewTable()
	tb.Append(Record{OID: 1, T: 1, Samples: mkSet(1, 0.5)})
	if err := tb.SortedRecords()[0].Samples.Validate(); err == nil {
		t.Error("expected validation error for sub-1 mass")
	}
}

func TestComputeStats(t *testing.T) {
	tb := NewTable()
	tb.Append(Record{OID: 1, T: 0, Samples: mkSet(1, 0.5, 2, 0.5)})
	tb.Append(Record{OID: 1, T: 10, Samples: mkSet(2, 1.0)})
	tb.Append(Record{OID: 2, T: 20, Samples: mkSet(3, 0.25, 4, 0.25, 5, 0.5)})
	st := tb.ComputeStats()
	if st.Records != 3 || st.Objects != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.TimeSpan != 20 {
		t.Errorf("TimeSpan = %d", st.TimeSpan)
	}
	if st.MaxSampleSize != 3 {
		t.Errorf("MaxSampleSize = %d", st.MaxSampleSize)
	}
	if st.AvgSampleSize != 2 {
		t.Errorf("AvgSampleSize = %v", st.AvgSampleSize)
	}
	if st.DistinctPLocs != 5 {
		t.Errorf("DistinctPLocs = %d", st.DistinctPLocs)
	}
	empty := NewTable().ComputeStats()
	if empty.Records != 0 || empty.Objects != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func randomTable(rng *rand.Rand, nRecords int) *Table {
	tb := NewTable()
	for i := 0; i < nRecords; i++ {
		n := rng.Intn(4) + 1
		var x SampleSet
		rem := 1.0
		for j := 0; j < n; j++ {
			p := rem / float64(n-j)
			if j < n-1 {
				p *= 0.5 + rng.Float64()
				if p >= rem {
					p = rem / 2
				}
			} else {
				p = rem
			}
			x = append(x, Sample{Loc: indoor.PLocID(i*10 + j), Prob: p})
			rem -= p
		}
		tb.Append(Record{OID: ObjectID(rng.Intn(10)), T: Time(rng.Intn(1000)), Samples: x})
	}
	return tb
}

// tablesEqual reports whether a's records in canonical order are b.
func tablesEqual(a *Table, b []Record) bool {
	recs := a.SortedRecords()
	if len(recs) != len(b) {
		return false
	}
	for i := range recs {
		ra, rb := recs[i], b[i]
		if ra.OID != rb.OID || ra.T != rb.T || len(ra.Samples) != len(rb.Samples) {
			return false
		}
		for j := range ra.Samples {
			if ra.Samples[j] != rb.Samples[j] {
				return false
			}
		}
	}
	return true
}

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := randomTable(rng, 200)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(tb, back) {
		t.Error("CSV round trip mismatch")
	}
}

func TestCSVSkipsCommentsAndBlank(t *testing.T) {
	in := "# comment\n\n1,5,2:1.0\n"
	recs, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Errorf("Len = %d", len(recs))
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"1,5",             // missing samples
		"x,5,1:1.0",       // bad oid
		"1,x,1:1.0",       // bad time
		"1,5,11.0",        // bad sample pair
		"1,5,x:1.0",       // bad loc
		"1,5,1:x",         // bad prob
		"1,5,1:0.5",       // invalid mass
		"1,5,1:0.5;1:0.5", // duplicate loc
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV(%q) should fail", c)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tb := randomTable(rng, 300)
	var buf bytes.Buffer
	if err := tb.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(tb, back) {
		t.Error("binary round trip mismatch")
	}
}

func TestBinaryRejectsCorrupt(t *testing.T) {
	if _, err := ReadBinary([]byte("NOPE")); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := ReadBinary([]byte("IU")); err == nil {
		t.Error("short input should fail")
	}
	// Valid header then truncated body.
	tb := NewTable()
	tb.Append(Record{OID: 1, T: 1, Samples: mkSet(1, 1.0)})
	var buf bytes.Buffer
	if err := tb.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadBinary(trunc); err == nil {
		t.Error("truncated body should fail")
	}
	// The fuzz seeds: every one but the valid file is refused.
	for name, data := range binarySeeds(t) {
		if _, err := ReadBinary(data); (err == nil) != (name == "valid") {
			t.Errorf("%s: ReadBinary error = %v", name, err)
		}
	}
}

// Property: both serializations round-trip arbitrary valid tables.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nSmall uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := randomTable(rng, int(nSmall)%50+1)
		var cbuf, bbuf bytes.Buffer
		if err := tb.WriteCSV(&cbuf); err != nil {
			return false
		}
		if err := tb.WriteBinary(&bbuf); err != nil {
			return false
		}
		c, err := ReadCSV(&cbuf)
		if err != nil {
			return false
		}
		b, err := ReadBinary(bbuf.Bytes())
		if err != nil {
			return false
		}
		return tablesEqual(tb, c) && tablesEqual(tb, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
