package tkplq_test

// Shared fixtures of the durability tests (partitioned_test.go,
// compaction_test.go, legacy_flat_test.go): the deterministic world, the
// ingest batches, the query battery and the bit-for-bit comparison.

import (
	"os"
	"path/filepath"
	"testing"

	"tkplq"
)

// copyDataDir clones a data directory into a fresh temp dir, as the
// filesystem a restarted process would recover (the advisory LOCK file is
// skipped — a real crash releases the flock with the process).
func copyDataDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// durableTestBuilding regenerates the deterministic small synthetic world
// shared by all systems in this test; identical seeds yield identical
// buildings and tables.
func durableTestBuilding(t testing.TB) (*tkplq.Building, *tkplq.Table) {
	t.Helper()
	b, err := tkplq.GenerateBuilding(tkplq.DefaultBuildingConfig())
	if err != nil {
		t.Fatal(err)
	}
	trajs, err := tkplq.SimulateMovement(b, tkplq.MovementConfig{
		Objects: 6, Duration: 600, MaxSpeed: 1.0,
		MinDwell: 60, MaxDwell: 240,
		MinLifespan: 300, MaxLifespan: 600,
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	table, err := tkplq.GenerateIUPT(b, trajs, tkplq.PositioningConfig{
		MaxPeriod: 3, MSS: 4, ErrorRadius: 5, Gamma: 0.2, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, table
}

// ingestBatches builds ten valid 3-record batches with distinct objects and
// fresh timestamps past the generated span.
func ingestBatches(numPLocs int) [][]tkplq.Record {
	batches := make([][]tkplq.Record, 10)
	for i := range batches {
		recs := make([]tkplq.Record, 3)
		for j := range recs {
			p1 := tkplq.PLocID((i*3 + j) % numPLocs)
			p2 := tkplq.PLocID((i*3 + j + 1) % numPLocs)
			recs[j] = tkplq.Record{
				OID: tkplq.ObjectID(100 + i),
				T:   tkplq.Time(610 + int64(i)*5 + int64(j)),
				Samples: tkplq.SampleSet{
					{Loc: p1, Prob: 0.6},
					{Loc: p2, Prob: 0.4},
				},
			}
		}
		batches[i] = recs
	}
	return batches
}

// assertIdentical compares two answer sets bit-for-bit: same rankings, same
// float64 flows (==, no tolerance).
func assertIdentical(t *testing.T, label string, got, want []*tkplq.Response) {
	t.Helper()
	for i := range want {
		if got[i].Flow != want[i].Flow {
			t.Errorf("%s: query %d scalar flow %v != %v", label, i, got[i].Flow, want[i].Flow)
		}
		if len(got[i].Results) != len(want[i].Results) {
			t.Fatalf("%s: query %d returned %d results, want %d", label, i, len(got[i].Results), len(want[i].Results))
		}
		for j := range want[i].Results {
			if got[i].Results[j] != want[i].Results[j] {
				t.Errorf("%s: query %d rank %d: %+v != %+v", label, i, j, got[i].Results[j], want[i].Results[j])
			}
		}
	}
}
