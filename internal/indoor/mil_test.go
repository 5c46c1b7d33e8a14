package indoor_test

import (
	"slices"
	"testing"

	"tkplq/internal/indoor"
	"tkplq/internal/sim"
)

// TestMILByConstruction: MIL's four-compare intersection relies on every
// P-location having one or two sorted, distinct cells. On Figure 1, the
// default generated building and the real-data floor, check that invariant
// and compare MIL, for every ordered P-location pair, with a naive set
// intersection of PLocCells; the pair connects iff len(MIL) > 0.
func TestMILByConstruction(t *testing.T) {
	spaces := map[string]*indoor.Space{"figure1": indoor.Figure1Space().Space}
	for _, name := range []string{"syn", "rd"} {
		b, err := sim.BuildingByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spaces[name] = b.Space
	}
	for name, s := range spaces {
		n := s.NumPLocations()
		for i := 0; i < n; i++ {
			cells := s.PLocCells(indoor.PLocID(i))
			if len(cells) < 1 || len(cells) > 2 || (len(cells) == 2 && cells[0] >= cells[1]) {
				t.Fatalf("%s: Cells(p%d) = %v, want one or two sorted, distinct cells", name, i, cells)
			}
		}
		for i := 0; i < n; i++ {
			a := s.PLocCells(indoor.PLocID(i))
			for j := 0; j < n; j++ {
				var want []indoor.CellID
				for _, c := range a {
					if slices.Contains(s.PLocCells(indoor.PLocID(j)), c) {
						want = append(want, c)
					}
				}
				got := s.MIL(indoor.PLocID(i), indoor.PLocID(j))
				if !slices.Equal(got, want) {
					t.Fatalf("%s: MIL[p%d, p%d] = %v, want %v", name, i, j, got, want)
				}
				if (len(got) > 0) != (len(want) > 0) {
					t.Fatalf("%s: M_IL[p%d, p%d] connected != %v", name, i, j, len(want) > 0)
				}
			}
		}
	}
}
