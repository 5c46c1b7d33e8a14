// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5) on simulated datasets: the real-data analog (RD,
// §5.2) and the Vita-like synthetic building (SYN, §5.3). Each experiment
// is addressable by the paper artifact id (T4, T5, F7..F21, T7) plus two
// ablations (A1: enumeration vs DP engine; A2: reduction stages).
//
// Experiments run at three scales: Small (unit tests and `go test -bench`),
// Medium (cmd/experiments default; paper-like RD, reduced SYN), and Paper
// (full published parameters; minutes to hours). Scales change data volume,
// never code paths, so result *shapes* are comparable throughout.
//
// Config.measure (measure.go) is the one method × point × draw nest: every
// experiment but T7 is its methods, the sweep that derives its points and the
// aggregates it prints. Every cell that is not a wall-clock time (fsec) is
// deterministic in Config.Seed and pinned by testdata/small.golden; refresh
// it after an intended change with
//
//	go test -run TestAllExperimentsRun ./internal/experiments -update-experiments
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
)

// Scale selects the data volume.
type Scale int

// Scales.
const (
	Small Scale = iota
	Medium
	Paper
)

// ParseScale maps a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "paper":
		return Paper, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (want small, medium or paper)", s)
	}
}

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Medium:
		return "medium"
	case Paper:
		return "paper"
	default:
		return "small"
	}
}

// Config drives an experiment run.
type Config struct {
	// Ctx, when non-nil, bounds every measured query evaluation: canceling
	// it (e.g. on SIGINT) aborts the experiment mid-query via the engine's
	// context plumbing instead of waiting the evaluation out.
	Ctx context.Context
	// Scale selects dataset sizes; see Scale.
	Scale Scale
	// Queries is how many random (query set, interval) draws each data
	// point averages over (the paper issues 15-20 random queries).
	// 0 selects a scale-appropriate default.
	Queries int
	// MCRounds overrides the Monte-Carlo round count (0 = scale default).
	MCRounds int
	// Seed makes runs reproducible.
	Seed int64
	// Workers bounds each engine's worker pool (core.Options.Workers):
	// 0 = GOMAXPROCS, 1 = single-threaded. Results are identical at every
	// setting; only measured wall-clock changes.
	Workers int

	cache *datasetCache
	// onGrid, when non-nil, sees every grid Config.measure produces. The
	// package's tests assert the paper's count invariants on it without a
	// second sweep.
	onGrid func(g *grid)
}

func (c *Config) queries() int {
	if c.Queries > 0 {
		return c.Queries
	}
	if c.Scale == Small {
		return 2
	}
	return 5
}

func (c *Config) mcRounds() int {
	if c.MCRounds > 0 {
		return c.MCRounds
	}
	switch c.Scale {
	case Paper:
		return 200
	case Medium:
		return 100
	default:
		return 25
	}
}

// Table is one rendered experiment artifact.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes carries per-table remarks (e.g. expected shape from the
	// paper).
	Notes []string
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	if err := writeRow(separators(widths)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func separators(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Experiment is a runnable evaluation artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg *Config) ([]Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"T4", "Performance comparison in default setting (RD)", runTable4},
		{"T5", "Efficiency vs mss (RD)", runTable5},
		{"F7", "Effectiveness vs mss (RD)", runFigure7},
		{"F8", "Efficiency vs k (RD)", runFigure8},
		{"F9", "Efficiency vs |Q| (RD)", runFigure9},
		{"F10", "Efficiency vs Δt (RD)", runFigure10},
		{"F11", "Effectiveness vs k (RD)", runFigure11},
		{"F12", "Effectiveness vs |Q| (RD)", runFigure12},
		{"F13", "Effectiveness vs Δt (RD)", runFigure13},
		{"F14", "Efficiency vs T and µ (SYN)", runFigure14},
		{"F15", "Effectiveness vs T (SYN)", runFigure15},
		{"F16", "Effectiveness vs µ (SYN)", runFigure16},
		{"F17", "Efficiency vs |O| (SYN)", runFigure17},
		{"F18", "Effectiveness vs k (SYN)", runFigure18},
		{"F19", "Effectiveness vs |Q| (SYN)", runFigure19},
		{"F20", "Effectiveness vs |O| (SYN)", runFigure20},
		{"F21", "Effectiveness vs Δt (SYN)", runFigure21},
		{"T7", "Kendall comparison with RFID methods (SYN)", runTable7},
		{"A1", "Ablation: enumeration vs DP engine", runAblationEngines},
		{"A2", "Ablation: data reduction stages", runAblationReduction},
	}
}

// ByID looks an experiment up by its (case-insensitive) id.
func ByID(id string) (Experiment, bool) {
	id = strings.ToUpper(strings.TrimSpace(id))
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
