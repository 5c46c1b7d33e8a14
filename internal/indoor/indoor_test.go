package indoor

import (
	"slices"
	"sort"
	"testing"

	"tkplq/internal/geom"
)

func cellSet(ids ...CellID) []CellID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalCells(a, b []CellID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// paperCells translates the paper's cell names (c1, c3..c6) to derived ids
// via the S-location parent-cell mapping.
func paperCells(f *Figure1) map[string]CellID {
	s := f.Space
	return map[string]CellID{
		"c1": s.CellOfSLoc(f.SLocs[0]), // Cell(r1) == Cell(r2)
		"c3": s.CellOfSLoc(f.SLocs[2]),
		"c4": s.CellOfSLoc(f.SLocs[3]),
		"c5": s.CellOfSLoc(f.SLocs[4]),
		"c6": s.CellOfSLoc(f.SLocs[5]),
	}
}

func TestFigure1CellDerivation(t *testing.T) {
	f := Figure1Space()
	s := f.Space
	if s.NumCells() != 5 {
		t.Fatalf("NumCells = %d, want 5", s.NumCells())
	}
	// r1 and r2 share a cell; all other rooms are singleton cells.
	if s.CellOfSLoc(f.SLocs[0]) != s.CellOfSLoc(f.SLocs[1]) {
		t.Error("r1 and r2 should share the paper's cell c1")
	}
	seen := map[CellID]bool{}
	for i := 2; i < 6; i++ {
		c := s.CellOfSLoc(f.SLocs[i])
		if seen[c] {
			t.Errorf("S-location %d shares a cell unexpectedly", i)
		}
		seen[c] = true
	}
	c1 := s.CellOfSLoc(f.SLocs[0])
	if len(s.Cell(c1).Partitions) != 2 {
		t.Errorf("cell c1 should contain 2 partitions, got %d", len(s.Cell(c1).Partitions))
	}
}

func TestFigure1PLocCells(t *testing.T) {
	f := Figure1Space()
	s := f.Space
	pc := paperCells(f)
	want := [][]CellID{
		cellSet(pc["c4"], pc["c5"]), // p1
		cellSet(pc["c4"], pc["c6"]), // p2
		cellSet(pc["c3"], pc["c4"]), // p3
		cellSet(pc["c1"], pc["c6"]), // p4
		cellSet(pc["c5"], pc["c6"]), // p5
		cellSet(pc["c6"]),           // p6
		cellSet(pc["c1"]),           // p7
		cellSet(pc["c6"]),           // p8
		cellSet(pc["c1"], pc["c6"]), // p9
	}
	for i, w := range want {
		got := s.PLocCells(f.PLocs[i])
		if !equalCells(got, w) {
			t.Errorf("Cells(p%d) = %v, want %v", i+1, got, w)
		}
	}
}

// TestFigure1MatrixMatchesPaper verifies every entry of the paper's
// Figure 3 indoor location matrix.
func TestFigure1MatrixMatchesPaper(t *testing.T) {
	f := Figure1Space()
	s := f.Space
	pc := paperCells(f)
	cs := func(names ...string) []CellID {
		out := make([]CellID, len(names))
		for i, n := range names {
			out[i] = pc[n]
		}
		return cellSet(out...)
	}
	empty := []CellID{}
	// Row-major upper triangle, rows p1..p9 as printed in Figure 3.
	want := [9][9][]CellID{}
	set := func(i, j int, cells []CellID) {
		want[i-1][j-1] = cells
	}
	set(1, 1, cs("c4", "c5"))
	set(1, 2, cs("c4"))
	set(1, 3, cs("c4"))
	set(1, 4, empty)
	set(1, 5, cs("c5"))
	set(1, 6, empty)
	set(1, 7, empty)
	set(1, 8, empty)
	set(1, 9, empty)
	set(2, 2, cs("c4", "c6"))
	set(2, 3, cs("c4"))
	set(2, 4, cs("c6"))
	set(2, 5, cs("c6"))
	set(2, 6, cs("c6"))
	set(2, 7, empty)
	set(2, 8, cs("c6"))
	set(2, 9, cs("c6"))
	set(3, 3, cs("c3", "c4"))
	set(3, 4, empty)
	set(3, 5, empty)
	set(3, 6, empty)
	set(3, 7, empty)
	set(3, 8, empty)
	set(3, 9, empty)
	set(4, 4, cs("c1", "c6"))
	set(4, 5, cs("c6"))
	set(4, 6, cs("c6"))
	set(4, 7, cs("c1"))
	set(4, 8, cs("c6"))
	set(4, 9, cs("c1", "c6"))
	set(5, 5, cs("c5", "c6"))
	set(5, 6, cs("c6"))
	set(5, 7, empty)
	set(5, 8, cs("c6"))
	set(5, 9, cs("c6"))
	set(6, 6, cs("c6"))
	set(6, 7, empty)
	set(6, 8, cs("c6"))
	set(6, 9, cs("c6"))
	set(7, 7, cs("c1"))
	set(7, 8, empty)
	set(7, 9, cs("c1"))
	set(8, 8, cs("c6"))
	set(8, 9, cs("c6"))
	set(9, 9, cs("c1", "c6"))

	for i := 0; i < 9; i++ {
		for j := i; j < 9; j++ {
			got := s.MIL(f.PLocs[i], f.PLocs[j])
			if got == nil {
				got = []CellID{}
			}
			if !equalCells(got, want[i][j]) {
				t.Errorf("MIL[p%d,p%d] = %v, want %v", i+1, j+1, got, want[i][j])
			}
			wantConn := len(want[i][j]) > 0
			if (len(got) > 0) != wantConn {
				t.Errorf("M_IL[p%d,p%d] connected != %v", i+1, j+1, wantConn)
			}
			// Symmetry of the on-demand lookup.
			rev := s.MIL(f.PLocs[j], f.PLocs[i])
			if rev == nil {
				rev = []CellID{}
			}
			if !equalCells(rev, want[i][j]) {
				t.Errorf("MIL[p%d,p%d] (reversed) = %v, want %v", j+1, i+1, rev, want[i][j])
			}
		}
	}
}

func TestFigure1EquivalenceClasses(t *testing.T) {
	f := Figure1Space()
	s := f.Space
	// p4 ≡ p9 ({c1,c6}); p6 ≡ p8 ({c6}); everything else singleton.
	if s.ClassRep(f.PLocs[8]) != f.PLocs[3] {
		t.Errorf("ClassRep(p9) = %d, want p4 (%d)", s.ClassRep(f.PLocs[8]), f.PLocs[3])
	}
	if s.ClassRep(f.PLocs[7]) != f.PLocs[5] {
		t.Errorf("ClassRep(p8) = %d, want p6 (%d)", s.ClassRep(f.PLocs[7]), f.PLocs[5])
	}
	for _, i := range []int{0, 1, 2, 4, 6} {
		if s.ClassRep(f.PLocs[i]) != f.PLocs[i] {
			t.Errorf("p%d should be its own representative", i+1)
		}
	}
	var members []PLocID
	for p := 0; p < s.NumPLocations(); p++ {
		if s.ClassRep(PLocID(p)) == f.PLocs[3] {
			members = append(members, PLocID(p))
		}
	}
	if !slices.Equal(members, []PLocID{f.PLocs[3], f.PLocs[8]}) {
		t.Errorf("class of p4 = %v, want p4, p9", members)
	}
}

// TestFigure1Graph checks G_ISL of Figure 2 as Cells(p) carries it: the
// edge labelled p joins the cells of Cells(p), P-locations with equal Cells(p)
// label the same edge, and a P-location with one cell labels a loop.
func TestFigure1Graph(t *testing.T) {
	f := Figure1Space()
	s := f.Space
	pc := paperCells(f)
	if s.NumCells() != 5 {
		t.Fatalf("graph cells = %d", s.NumCells())
	}
	edges := map[[2]CellID][]PLocID{}
	for p := 0; p < s.NumPLocations(); p++ {
		cells := s.PLocCells(PLocID(p))
		e := [2]CellID{cells[0], cells[len(cells)-1]}
		edges[e] = append(edges[e], PLocID(p))
	}
	// 5 inter-cell edges + 2 loop edges (c6 presence pair, c1 presence).
	if len(edges) != 7 {
		t.Fatalf("graph edges = %d, want 7", len(edges))
	}
	loops := 0
	degree := map[CellID]int{}
	for e := range edges {
		if e[0] == e[1] {
			loops++
			continue
		}
		degree[e[0]]++
		degree[e[1]]++
	}
	if loops != 2 {
		t.Errorf("loops = %d, want 2", loops)
	}
	if got := edges[[2]CellID{pc["c6"], pc["c6"]}]; !slices.Equal(got, []PLocID{f.PLocs[5], f.PLocs[7]}) {
		t.Errorf("loop on c6 = %v, want p6, p8", got)
	}
	// c6 (hallway cell) neighbors c1, c4, c5; c3 only c4.
	if degree[pc["c6"]] != 3 || degree[pc["c3"]] != 1 {
		t.Errorf("degree(c6), degree(c3) = %d, %d, want 3, 1", degree[pc["c6"]], degree[pc["c3"]])
	}
}

func TestGlobalPlaneMapping(t *testing.T) {
	b := NewBuilder()
	p0 := b.AddPartition("a", Room, 0, geom.R(0, 0, 10, 10))
	p1 := b.AddPartition("b", Room, 2, geom.R(0, 0, 10, 10))
	b.AddDoor(p0, p1, geom.Pt(5, 5)) // cross-floor staircase door
	b.AddSLocation("a", p0)
	b.AddSLocation("b", p1)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFloors() != 3 {
		t.Errorf("NumFloors = %d, want 3", s.NumFloors())
	}
	r0 := s.PartitionGlobalBounds(p0)
	r1 := s.PartitionGlobalBounds(p1)
	if r0.Intersects(r1) {
		t.Errorf("different floors must not intersect in the global plane: %v vs %v", r0, r1)
	}
	if s.GlobalPoint(2, geom.Pt(1, 1)).X <= s.GlobalPoint(0, geom.Pt(1, 1)).X {
		t.Error("higher floors should map to larger X")
	}
	// Unmonitored cross-floor door merges both partitions into one cell.
	if s.NumCells() != 1 {
		t.Errorf("NumCells = %d, want 1", s.NumCells())
	}
}

func TestBuilderValidation(t *testing.T) {
	t.Run("no partitions", func(t *testing.T) {
		if _, err := NewBuilder().Build(); err == nil {
			t.Error("expected error for empty space")
		}
	})
	t.Run("empty bounds", func(t *testing.T) {
		b := NewBuilder()
		b.AddPartition("bad", Room, 0, geom.Rect{})
		if _, err := b.Build(); err == nil {
			t.Error("expected error for empty partition bounds")
		}
	})
	t.Run("self door", func(t *testing.T) {
		b := NewBuilder()
		p := b.AddPartition("a", Room, 0, geom.R(0, 0, 1, 1))
		b.AddDoor(p, p, geom.Pt(0, 0))
		if _, err := b.Build(); err == nil {
			t.Error("expected error for self-door")
		}
	})
	t.Run("door bad partition", func(t *testing.T) {
		b := NewBuilder()
		p := b.AddPartition("a", Room, 0, geom.R(0, 0, 1, 1))
		b.AddDoor(p, PartitionID(99), geom.Pt(0, 0))
		if _, err := b.Build(); err == nil {
			t.Error("expected error for unknown partition")
		}
	})
	t.Run("presence outside partition", func(t *testing.T) {
		b := NewBuilder()
		p := b.AddPartition("a", Room, 0, geom.R(0, 0, 1, 1))
		b.AddPresencePLoc(p, geom.Pt(5, 5))
		if _, err := b.Build(); err == nil {
			t.Error("expected error for presence P-location outside bounds")
		}
	})
	t.Run("ploc bad door", func(t *testing.T) {
		b := NewBuilder()
		b.AddPartition("a", Room, 0, geom.R(0, 0, 1, 1))
		b.AddPartitioningPLoc(DoorID(7))
		if _, err := b.Build(); err == nil {
			t.Error("expected error for unknown door")
		}
	})
	t.Run("sloc no partitions", func(t *testing.T) {
		b := NewBuilder()
		b.AddPartition("a", Room, 0, geom.R(0, 0, 1, 1))
		b.AddSLocation("empty")
		if _, err := b.Build(); err == nil {
			t.Error("expected error for empty S-location")
		}
	})
	t.Run("sloc spans cells", func(t *testing.T) {
		b := NewBuilder()
		pa := b.AddPartition("a", Room, 0, geom.R(0, 0, 1, 1))
		pb := b.AddPartition("b", Room, 0, geom.R(1, 0, 2, 1))
		d := b.AddDoor(pa, pb, geom.Pt(1, 0.5))
		b.AddPartitioningPLoc(d) // splits a and b into two cells
		b.AddSLocation("span", pa, pb)
		if _, err := b.Build(); err == nil {
			t.Error("expected error for S-location spanning cells")
		}
	})
	t.Run("negative floor", func(t *testing.T) {
		b := NewBuilder()
		b.AddPartition("a", Room, -1, geom.R(0, 0, 1, 1))
		if _, err := b.Build(); err == nil {
			t.Error("expected error for negative floor")
		}
	})
}

func TestMonitoredDoorMergedByCycle(t *testing.T) {
	// Two partitions joined by both a monitored and an unmonitored door:
	// the partitioning P-location does not actually separate cells, so
	// Cells(p) must collapse to a single cell.
	b := NewBuilder()
	pa := b.AddPartition("a", Room, 0, geom.R(0, 0, 1, 1))
	pb := b.AddPartition("b", Room, 0, geom.R(1, 0, 2, 1))
	d1 := b.AddDoor(pa, pb, geom.Pt(1, 0.2))
	b.AddDoor(pa, pb, geom.Pt(1, 0.8)) // unmonitored
	p := b.AddPartitioningPLoc(d1)
	b.AddSLocation("a", pa)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCells() != 1 {
		t.Fatalf("NumCells = %d, want 1", s.NumCells())
	}
	if got := s.PLocCells(p); len(got) != 1 {
		t.Errorf("Cells(p) = %v, want single cell", got)
	}
}

func TestAccessorsAndHelpers(t *testing.T) {
	f := Figure1Space()
	s := f.Space
	if s.NumPartitions() != 6 || s.NumDoors() != 7 || s.NumPLocations() != 9 || s.NumSLocations() != 6 {
		t.Fatalf("counts: %d partitions, %d doors, %d plocs, %d slocs",
			s.NumPartitions(), s.NumDoors(), s.NumPLocations(), s.NumSLocations())
	}
	if s.Partition(f.Rooms[5]).Kind != Hallway {
		t.Error("r6 should be a hallway")
	}
	if got := s.SLocsOfPartition(f.Rooms[0]); !slices.Equal(got, []SLocID{f.SLocs[0]}) {
		t.Errorf("SLocsOfPartition(r1) = %v", got)
	}
	if p4 := s.PLocation(f.PLocs[3]); p4.Kind != Partitioning || p4.Door != f.Doors["r1-r6"] {
		t.Errorf("p4 = %+v, want the partitioning P-location of door r1-r6", p4)
	}
	if s.SLocBounds(f.SLocs[0]).IsEmpty() {
		t.Error("S-location bounds should not be empty")
	}
	if p1 := s.PLocation(f.PLocs[0]); s.GlobalPoint(p1.Floor, p1.Pos) != p1.Pos {
		t.Error("floor-0 global position should equal local position")
	}
	if Room.String() != "room" || Hallway.String() != "hallway" || Staircase.String() != "staircase" {
		t.Error("PartitionKind.String broken")
	}
	if Partitioning.String() != "partitioning" || Presence.String() != "presence" {
		t.Error("PLocKind.String broken")
	}
	if PartitionKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}
