package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestSeedDrivesEverything: the same seed yields byte-identical datasets and
// request sequences, a different seed does not.
func TestSeedDrivesEverything(t *testing.T) {
	z := smoke()
	plans := func(seed int64) map[string][32]byte {
		ds, err := generate(z, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][32]byte{}
		for _, w := range workloads {
			p, err := buildPlan(w.name, z, seed, ds)
			if err != nil {
				t.Fatal(err)
			}
			out[w.name] = p.fingerprint()
		}
		return out
	}
	a, again, b := plans(1), plans(1), plans(2)
	for _, w := range workloads {
		if a[w.name] != again[w.name] {
			t.Errorf("%s: seed 1 produced two different request sequences", w.name)
		}
		if a[w.name] == b[w.name] {
			t.Errorf("%s: seeds 1 and 2 produced the same request sequence", w.name)
		}
	}
}

// TestSmoke runs all four workloads end to end at 1/50 scale, traced replay
// included.
func TestSmoke(t *testing.T) {
	runtime.GOMAXPROCS(2)
	dataDir, outDir := t.TempDir(), t.TempDir()
	cfg := runConfig{z: smoke(), seed: 1, trace: true, dataDir: dataDir, outDir: outDir}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	results, err := runSuite(cfg, names)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", res.workload, res.failed, res.attempted, res.failures)
		}
		for _, defs := range [][]metric{endToEnd, perLayer} {
			for _, m := range reported(defs, res.workload, true) {
				v, ok := res.values[m.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s not measured (%v)", res.workload, m.name, v)
				}
				if m.unit == "" || (m.better != "lower" && m.better != "higher") {
					t.Errorf("metric %s has no unit or direction", m.name)
				}
			}
		}
		for name := range res.values {
			if !defined(name, res.workload) {
				t.Errorf("%s: value %s is in neither metric table for this workload", res.workload, name)
			}
		}
		var line bytes.Buffer
		for _, trace := range []bool{false, true} {
			line.Reset()
			if err := printContractLine(&line, res, trace); err != nil {
				t.Errorf("%s: contract line (trace %v): %v", res.workload, trace, err)
			}
		}
		checkSpans(t, filepath.Join(outDir, "trace-"+res.workload+".jsonl"))
	}
	// Clean shutdown: every temporary data directory is gone.
	left, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d data directories left behind in %s", len(left), dataDir)
	}
}

func defined(name, workload string) bool {
	for _, defs := range [][]metric{endToEnd, perLayer} {
		for _, m := range defs {
			if m.name == name && m.on&maskOf(workload) != 0 {
				return true
			}
		}
	}
	return false
}

// checkSpans reads a span file back: children lie inside their parents, and
// the self times of each operation's spans add up to its root span.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	type rec struct {
		Op      int     `json:"op"`
		ID      int     `json:"id"`
		Parent  int     `json:"parent"`
		Name    string  `json:"name"`
		StartUS float64 `json:"start_us"`
		EndUS   float64 `json:"end_us"`
		SelfUS  float64 `json:"self_us"`
	}
	var spans []rec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s rec
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Errorf("%s: %v", path, err)
			return
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Errorf("%s: no spans", path)
		return
	}
	selfByOp, rootByOp := map[int]float64{}, map[int]float64{}
	for i, s := range spans {
		if s.ID != i {
			t.Fatalf("%s: span %d has id %d", path, i, s.ID)
		}
		selfByOp[s.Op] += s.SelfUS
		if s.Parent < 0 {
			rootByOp[s.Op] = s.EndUS - s.StartUS
			continue
		}
		p := spans[s.Parent]
		if p.Op != s.Op || s.StartUS < p.StartUS || s.EndUS > p.EndUS {
			t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", path, s.ID, s.Name, p.ID, p.Name)
		}
		if s.SelfUS < 0 {
			t.Errorf("%s: span %d (%s) has negative self time", path, s.ID, s.Name)
		}
	}
	for op, root := range rootByOp {
		// Rounding: each span contributes at most a nanosecond of error.
		if math.Abs(selfByOp[op]-root) > 0.001*float64(len(spans)) {
			t.Errorf("%s: operation %d: self times sum to %.3f µs, the root span is %.3f µs", path, op, selfByOp[op], root)
		}
	}
}

// TestContractFile: BENCHMARK.json at the repository root is what the metric
// tables generate.
func TestContractFile(t *testing.T) {
	want, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this module:", err)
	}
	var got bytes.Buffer
	if err := run([]string{"-contract"}, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with `bash bench/e2e/run.sh -contract > BENCHMARK.json`")
	}
	for _, m := range universal(endToEnd) {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4), which the builder's driver uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v, %v; want 1.5, 12", q1, q3)
	}
}
