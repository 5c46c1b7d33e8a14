package experiments

import (
	"bytes"
	"flag"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tkplq/internal/core"
)

// The golden file pins every cell of every experiment at smallConfig() that
// is not a wall-clock time: one "# <id>" section per experiment, holding its
// tables as Render prints them with the time cells masked. After an
// intentional change to a printed number, regenerate with:
//
//	go test -run TestAllExperimentsRun ./internal/experiments -update-experiments
var updateExperiments = flag.Bool("update-experiments", false, "rewrite testdata/small.golden with the current experiment output")

const goldenPath = "testdata/small.golden"

// timeCell matches what fsec prints, the only cells that differ between two
// runs of one seed.
var timeCell = regexp.MustCompile(`^[0-9.]+(µs|ms|s)$`)

// renderMasked renders tbl with its time cells replaced by a fixed token.
// Masking happens before Render so column widths do not depend on a time.
func renderMasked(t *testing.T, buf *bytes.Buffer, tbl Table) {
	t.Helper()
	masked := tbl
	masked.Rows = make([][]string, len(tbl.Rows))
	for i, row := range tbl.Rows {
		masked.Rows[i] = make([]string, len(row))
		for j, cell := range row {
			if timeCell.MatchString(cell) {
				cell = "<time>"
			}
			masked.Rows[i][j] = cell
		}
	}
	if err := masked.Render(buf); err != nil {
		t.Errorf("%s render: %v", tbl.ID, err)
	}
}

// goldenSections splits the golden file into its per-experiment sections.
func goldenSections(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v — run `go test -run TestAllExperimentsRun ./internal/experiments -update-experiments` to create it", err)
	}
	out := make(map[string]string)
	var id string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			id = strings.TrimSpace(rest)
		} else {
			out[id] += line
		}
	}
	return out
}

// firstDiff names the first line at which got and want part ways.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return "line " + strconv.Itoa(i+1) + ":\n  got:  " + gl + "\n  want: " + wl
		}
	}
	return "no difference"
}

func smallConfig() *Config {
	return &Config{Scale: Small, Queries: 1, MCRounds: 5, Seed: 17}
}

// TestAllExperimentsRun executes every experiment at Small scale, sharing
// one dataset cache, sanity-checks the emitted tables and compares every
// cell that is not a wall-clock time with the golden file. The same pass
// asserts the counts the paper's tables imply (checkCounts) and that every
// τ and recall cell parses into [-1, 1] (checkTauCells).
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow; skipped with -short")
	}
	cfg := smallConfig()
	var golden map[string]string
	if !*updateExperiments {
		golden = goldenSections(t)
	}
	var all bytes.Buffer // every section, for -update-experiments
	ran := 0
	var grids []*grid // what the running experiment measured
	cfg.onGrid = func(g *grid) { grids = append(grids, g) }
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			ran++
			grids = nil
			var section bytes.Buffer
			defer func() {
				all.WriteString("# " + exp.ID + "\n" + section.String())
				if golden != nil && section.String() != golden[exp.ID] {
					t.Errorf("%s differs from %s (refresh with -update-experiments if intended), first at %s",
						exp.ID, goldenPath, firstDiff(section.String(), golden[exp.ID]))
				}
			}()
			tables, err := exp.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", exp.ID)
			}
			for _, tbl := range tables {
				if tbl.ID == "" || tbl.Title == "" {
					t.Errorf("%s: table missing id/title", exp.ID)
				}
				if len(tbl.Header) < 2 || len(tbl.Rows) == 0 {
					t.Errorf("%s/%s: empty table", exp.ID, tbl.ID)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Header) {
						t.Errorf("%s/%s: row width %d != header %d", exp.ID, tbl.ID, len(row), len(tbl.Header))
					}
				}
				var buf bytes.Buffer
				if err := tbl.Render(&buf); err != nil {
					t.Errorf("%s/%s render: %v", exp.ID, tbl.ID, err)
				}
				if !strings.Contains(buf.String(), tbl.ID) {
					t.Errorf("%s/%s: render missing id", exp.ID, tbl.ID)
				}
				renderMasked(t, &section, tbl)
				checkTauCells(t, tbl)
			}
			checkCounts(t, exp.ID, grids, tables)
		})
	}
	if *updateExperiments {
		// A -run filter that skipped some experiment must not truncate the file.
		if ran != len(All()) {
			t.Fatalf("-update-experiments needs every experiment; %d of %d ran", ran, len(All()))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
	}
}

// checkTauCells parses every τ and recall cell of tbl — the whole body of a
// "Kendall tau"/"Recall" table, the tau and recall columns of T4 and A2 —
// and checks it lies in [-1, 1].
func checkTauCells(t *testing.T, tbl Table) {
	t.Helper()
	whole := strings.HasPrefix(tbl.Title, "Kendall tau") || strings.HasPrefix(tbl.Title, "Recall")
	for _, row := range tbl.Rows {
		for j, cell := range row {
			h := tbl.Header[j]
			if j == 0 || !(whole || h == "tau" || h == "recall" || h == "tau vs full") {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Errorf("%s: cell %q not numeric: %v", tbl.ID, cell, err)
			} else if v < -1 || v > 1 {
				t.Errorf("%s: metric %v out of [-1, 1]", tbl.ID, v)
			}
		}
	}
}

// runsOf returns the named method's runs at every point of g.
func runsOf(t *testing.T, g *grid, name string) []agg {
	t.Helper()
	for mi, m := range g.methods {
		if m.name == name {
			return g.cells[mi]
		}
	}
	t.Fatalf("grid has no method %q", name)
	return nil
}

// sameRanking reports whether two results list the same S-locations with
// bit-identical flows.
func sameRanking(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].SLoc != b[i].SLoc || math.Float64bits(a[i].Flow) != math.Float64bits(b[i].Flow) {
			return false
		}
	}
	return true
}

// checkCounts asserts, on the grids an experiment measured, the counts the
// paper's tables imply (ROADMAP item 2a): object counts and rankings, which
// are deterministic, not times or τ trends, which 1-2 draws cannot carry.
func checkCounts(t *testing.T, id string, grids []*grid, tables []Table) {
	t.Helper()
	switch id {
	case "T4", "F8", "F9", "F10", "A2":
		if len(grids) != 1 {
			t.Fatalf("%s measured %d grids, want 1", id, len(grids))
		}
	default:
		return
	}
	g := grids[0]
	if id == "A2" {
		// intra-merge alone keeps every sample set; each stage only removes.
		kept := func(name string) float64 {
			a := runsOf(t, g, name)[0]
			return float64(a.total(func(s *core.Stats) int64 { return s.SampleSetsReduced })) /
				float64(a.total(func(s *core.Stats) int64 { return s.SampleSetsOriginal }))
		}
		full, inter, intra := kept("full"), kept("inter-only"), kept("intra-only")
		if !(full <= inter && inter <= intra && intra == 1) {
			t.Errorf("A2 sets kept: full %v ≤ inter-only %v ≤ intra-only %v == 1 does not hold", full, inter, intra)
		}
		// The reference row agrees with itself.
		if row := tables[0].Rows[0]; row[0] != "full" || row[len(row)-1] != "1.000" {
			t.Errorf("A2 reference row = %v, want full … 1.000", row)
		}
		return
	}

	// The paper's pruning order: Best-First evaluates no more objects than
	// Nested-Loop, which evaluates no more than there are.
	bf, nl := runsOf(t, g, "BF"), runsOf(t, g, "NL")
	for pi, p := range g.points {
		for di := range nl[pi] {
			b, n := bf[pi][di].Stats, nl[pi][di].Stats
			if !(b.ObjectsComputed <= n.ObjectsComputed && n.ObjectsComputed <= n.ObjectsTotal) {
				t.Errorf("%s %s draw %d: objects computed BF %d ≤ NL %d ≤ total %d does not hold",
					id, p.label, di, b.ObjectsComputed, n.ObjectsComputed, n.ObjectsTotal)
			}
		}
	}
	if id != "T4" {
		return
	}
	// T4 also runs Naive and the -ORG variants: Naive computes exactly the
	// objects Nested-Loop does, the three exact searches return one ranking
	// (the determinism contract, seen as equal τ and recall cells), and
	// with data reduction disabled the PSL∩Q check that prunes is off.
	naive := runsOf(t, g, "Naive")
	for di := range nl[0] {
		if nl[0][di].Stats.ObjectsComputed != naive[0][di].Stats.ObjectsComputed {
			t.Errorf("T4 draw %d: objects computed NL %d != Naive %d",
				di, nl[0][di].Stats.ObjectsComputed, naive[0][di].Stats.ObjectsComputed)
		}
		if !sameRanking(bf[0][di].Res, nl[0][di].Res) || !sameRanking(nl[0][di].Res, naive[0][di].Res) {
			t.Errorf("T4 draw %d: BF %v, NL %v and Naive %v are not one ranking",
				di, bf[0][di].Res, nl[0][di].Res, naive[0][di].Res)
		}
	}
	for _, name := range []string{"BF-ORG", "NL-ORG", "Naive-ORG"} {
		for di, r := range runsOf(t, g, name)[0] {
			if r.Stats.PruningRatio() != 0 {
				t.Errorf("T4 %s draw %d: pruning %v, want 0", name, di, r.Stats.PruningRatio())
			}
		}
	}
}

func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scale
		ok   bool
	}{
		{"small", Small, true},
		{"MEDIUM", Medium, true},
		{"Paper", Paper, true},
		{"huge", 0, false},
	} {
		got, err := ParseScale(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseScale(%q) = %v, %v", c.in, got, err)
		}
	}
	if Small.String() != "small" || Medium.String() != "medium" || Paper.String() != "paper" {
		t.Error("Scale.String broken")
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("t4"); !ok {
		t.Error("ByID should be case-insensitive")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id should miss")
	}
}

func TestDatasetCacheReuse(t *testing.T) {
	cfg := smallConfig()
	a, err := cfg.RealDataset()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.RealDataset()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("RealDataset should be cached per Config")
	}
	s1, err := cfg.SyntheticDataset()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cfg.SyntheticDataset()
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("SyntheticDataset should be cached per Config")
	}
}

func TestRestrictObjects(t *testing.T) {
	cfg := smallConfig()
	ds, err := cfg.SyntheticDataset()
	if err != nil {
		t.Fatal(err)
	}
	full, err := cfg.synIUPT(ds, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	small := restrictObjects(full, 5)
	for _, rec := range small.SortedRecords() {
		if rec.OID > 5 {
			t.Fatalf("object %d leaked through restriction", rec.OID)
		}
	}
	if small.Len() >= full.Len() {
		t.Error("restriction should drop records")
	}
	trajs := restrictTrajs(ds.Trajs, 5)
	if len(trajs) != 5 {
		t.Errorf("restricted trajectories = %d", len(trajs))
	}
}

func TestMakeDraws(t *testing.T) {
	cfg := smallConfig()
	ds, err := cfg.RealDataset()
	if err != nil {
		t.Fatal(err)
	}
	draw := func() []queryDraw { return makeDraws(ds, 0.5, 600, 4, 9) }
	ds2 := draw()
	if len(ds2) != 4 {
		t.Fatalf("draws = %d", len(ds2))
	}
	for _, d := range ds2 {
		if len(d.Q) != 7 { // 50% of 14
			t.Errorf("|Q| = %d, want 7", len(d.Q))
		}
		if d.te-d.ts != 600 {
			t.Errorf("Δt = %d", d.te-d.ts)
		}
		if d.ts < 0 || d.te > ds.Span {
			t.Errorf("interval [%d,%d] outside span", d.ts, d.te)
		}
		seen := map[int32]bool{}
		for _, q := range d.Q {
			if seen[int32(q)] {
				t.Error("duplicate S-location in draw")
			}
			seen[int32(q)] = true
		}
	}
	// Determinism.
	again := draw()
	for i := range ds2 {
		if ds2[i].ts != again[i].ts || len(ds2[i].Q) != len(again[i].Q) {
			t.Error("draws should be deterministic per seed")
		}
	}
}
