package sim

import (
	"math"
	"testing"

	"tkplq/internal/geom"
	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

func mustBuilding(t testing.TB, cfg BuildingConfig) *Building {
	t.Helper()
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGenerateBuildingStructure(t *testing.T) {
	cfg := DefaultBuildingConfig()
	b := mustBuilding(t, cfg)
	s := b.Space
	// Per floor: 1 spine + RoomRows*(2 hallways + 4*RoomsPerRow slots).
	perFloor := 1 + cfg.RoomRows*(2+4*cfg.RoomsPerRow)
	if got := s.NumPartitions(); got != perFloor*cfg.Floors {
		t.Errorf("partitions = %d, want %d", got, perFloor*cfg.Floors)
	}
	if s.NumSLocations() != s.NumPartitions() {
		t.Errorf("S-locations = %d, want one per partition", s.NumSLocations())
	}
	if s.NumFloors() != cfg.Floors {
		t.Errorf("floors = %d", s.NumFloors())
	}
	// Two staircases per floor.
	for f := 0; f < cfg.Floors; f++ {
		if len(b.Staircases[f]) != 2 {
			t.Errorf("floor %d staircases = %d, want 2", f, len(b.Staircases[f]))
		}
		for _, st := range b.Staircases[f] {
			if s.Partition(st).Kind != indoor.Staircase {
				t.Errorf("partition %d should be a staircase", st)
			}
		}
	}
	if s.NumPLocations() == 0 || s.NumDoors() == 0 || s.NumCells() == 0 {
		t.Error("building should have P-locations, doors and cells")
	}
	// With monitor rate < 1 some doors are unmonitored, so cells can merge
	// partitions; still every partition maps to exactly one cell.
	total := 0
	for c := 0; c < s.NumCells(); c++ {
		total += len(s.Cell(indoor.CellID(c)).Partitions)
	}
	if total != s.NumPartitions() {
		t.Errorf("cells cover %d partitions, want %d", total, s.NumPartitions())
	}
}

func TestGenerateFullyMonitored(t *testing.T) {
	cfg := DefaultBuildingConfig()
	cfg.DoorMonitorRate = 1.0
	b := mustBuilding(t, cfg)
	// Every door monitored => every partition is its own cell.
	if b.Space.NumCells() != b.Space.NumPartitions() {
		t.Errorf("cells = %d, partitions = %d; fully monitored space should match",
			b.Space.NumCells(), b.Space.NumPartitions())
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := mustBuilding(t, DefaultBuildingConfig())
	b := mustBuilding(t, DefaultBuildingConfig())
	if a.Space.NumPLocations() != b.Space.NumPLocations() ||
		a.Space.NumCells() != b.Space.NumCells() {
		t.Error("same seed must generate identical buildings")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []BuildingConfig{
		{},
		{Floors: 1, RoomRows: 1, RoomsPerRow: 1, FloorWidth: 60, FloorHeight: 60, CorridorWidth: 4},
		{Floors: 1, RoomRows: 1, RoomsPerRow: 3, FloorWidth: 5, FloorHeight: 5, CorridorWidth: 4},
		{Floors: 1, RoomRows: 1, RoomsPerRow: 3, FloorWidth: 60, FloorHeight: 60, CorridorWidth: 0.2},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestRealDataFloor(t *testing.T) {
	b, err := RealDataFloor()
	if err != nil {
		t.Fatal(err)
	}
	s := b.Space
	if s.NumPartitions() != 14 || s.NumSLocations() != 14 {
		t.Errorf("partitions/slocs = %d/%d, want 14/14", s.NumPartitions(), s.NumSLocations())
	}
	rooms, halls := 0, 0
	for i := 0; i < s.NumPartitions(); i++ {
		switch s.Partition(indoor.PartitionID(i)).Kind {
		case indoor.Room:
			rooms++
		case indoor.Hallway:
			halls++
		}
	}
	if rooms != 9 || halls != 5 {
		t.Errorf("rooms/halls = %d/%d, want 9/5", rooms, halls)
	}
	if s.NumDoors() != 13 {
		t.Errorf("doors = %d, want 13", s.NumDoors())
	}
	// ~75 P-locations like the published deployment (13 partitioning).
	if n := s.NumPLocations(); n < 55 || n > 95 {
		t.Errorf("P-locations = %d, want ≈75", n)
	}
	part := 0
	for i := 0; i < s.NumPLocations(); i++ {
		if s.PLocation(indoor.PLocID(i)).Kind == indoor.Partitioning {
			part++
		}
	}
	if part != 13 {
		t.Errorf("partitioning P-locations = %d, want 13", part)
	}
	// Fully monitored doors: every partition is a cell.
	if s.NumCells() != 14 {
		t.Errorf("cells = %d, want 14", s.NumCells())
	}
}

func TestNavRouteSameFloor(t *testing.T) {
	b, err := RealDataFloor()
	if err != nil {
		t.Fatal(err)
	}
	nav := b.nav2()
	s := b.Space
	// r1 (partition 5) to r8 (partition 13): must pass h1, h3?, h2.
	src, dst := indoor.PartitionID(5), indoor.PartitionID(13)
	route := nav.route(src, s.Partition(src).Bounds.Center(), dst, s.Partition(dst).Bounds.Center())
	if route == nil {
		t.Fatal("route not found")
	}
	if len(route) < 2 {
		t.Errorf("route %v too short; r1->r8 needs at least r1-door and r8-door", route)
	}
	// First door borders src; last door borders dst.
	first, last := s.Door(route[0]), s.Door(route[len(route)-1])
	if first.Partitions[0] != src && first.Partitions[1] != src {
		t.Errorf("first door %v does not border source", first)
	}
	if last.Partitions[0] != dst && last.Partitions[1] != dst {
		t.Errorf("last door %v does not border destination", last)
	}
	// Consecutive doors share a partition.
	for i := 1; i < len(route); i++ {
		a, c := s.Door(route[i-1]), s.Door(route[i])
		if sharedPartition(s, a, c, -1) == -1 {
			t.Errorf("doors %d,%d share no partition", route[i-1], route[i])
		}
	}
	// Same partition: empty route.
	if r := nav.route(src, geom.Pt(1, 16), src, geom.Pt(3, 20)); r == nil || len(r) != 0 {
		t.Errorf("same-partition route = %v, want empty", r)
	}
}

func TestNavRouteCrossFloor(t *testing.T) {
	b := mustBuilding(t, DefaultBuildingConfig())
	s := b.Space
	nav := b.nav2()
	// Any partition on floor 0 to any on floor 1 must route via a stair
	// (cross-floor) door.
	var src, dst indoor.PartitionID = -1, -1
	for i := 0; i < s.NumPartitions(); i++ {
		p := s.Partition(indoor.PartitionID(i))
		if p.Floor == 0 && src < 0 && p.Kind == indoor.Room {
			src = p.ID
		}
		if p.Floor == 1 && p.Kind == indoor.Room {
			dst = p.ID
		}
	}
	if src < 0 || dst < 0 {
		t.Fatal("rooms on both floors expected")
	}
	route := nav.route(src, s.Partition(src).Bounds.Center(), dst, s.Partition(dst).Bounds.Center())
	if route == nil {
		t.Fatal("cross-floor route not found")
	}
	cross := false
	for _, d := range route {
		if isCrossFloor(s, s.Door(d)) {
			cross = true
		}
	}
	if !cross {
		t.Error("cross-floor route must use a staircase door")
	}
}

func TestSimulateMovement(t *testing.T) {
	b := mustBuilding(t, DefaultBuildingConfig())
	cfg := DefaultMovementConfig()
	cfg.Objects = 10
	cfg.Duration = 1200
	cfg.MinDwell, cfg.MaxDwell = 30, 120
	cfg.MinLifespan, cfg.MaxLifespan = 600, 1200
	trajs, err := SimulateMovement(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(trajs) != 10 {
		t.Fatalf("trajectories = %d", len(trajs))
	}
	s := b.Space
	for _, tr := range trajs {
		if len(tr.Points) == 0 {
			t.Fatalf("object %d has empty trajectory", tr.OID)
		}
		if tr.End()-tr.Start() < 500 {
			t.Errorf("object %d lifespan too short: %d", tr.OID, tr.End()-tr.Start())
		}
		prev := tr.Points[0]
		if !s.Partition(prev.Partition).Bounds.Expand(0.5).ContainsPoint(prev.Pos) {
			t.Fatalf("object %d starts outside its partition", tr.OID)
		}
		for _, pt := range tr.Points[1:] {
			// One point per second, in order.
			if pt.T != prev.T+1 {
				t.Fatalf("object %d: gap %d -> %d", tr.OID, prev.T, pt.T)
			}
			// Speed bound (same-floor moves only; stair crossings pin the
			// position while the floor changes).
			sameFloor := s.Partition(pt.Partition).Floor == s.Partition(prev.Partition).Floor
			if sameFloor && pt.Pos.Dist(prev.Pos) > cfg.MaxSpeed+1e-9 {
				t.Fatalf("object %d moved %.2f m in 1 s", tr.OID, pt.Pos.Dist(prev.Pos))
			}
			// Point stays within (slightly expanded) partition bounds.
			if !s.Partition(pt.Partition).Bounds.Expand(0.5).ContainsPoint(pt.Pos) {
				t.Fatalf("object %d at %v outside partition %d %v",
					tr.OID, pt.Pos, pt.Partition, s.Partition(pt.Partition).Bounds)
			}
			prev = pt
		}
	}
}

func TestMovementDeterminism(t *testing.T) {
	b := mustBuilding(t, DefaultBuildingConfig())
	cfg := DefaultMovementConfig()
	cfg.Objects = 3
	cfg.Duration = 600
	a, err := SimulateMovement(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := SimulateMovement(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i].Points) != len(c[i].Points) {
			t.Fatalf("object %d point counts differ", a[i].OID)
		}
		for j := range a[i].Points {
			if a[i].Points[j] != c[i].Points[j] {
				t.Fatalf("object %d diverges at %d", a[i].OID, j)
			}
		}
	}
}

func TestMovementValidation(t *testing.T) {
	b := mustBuilding(t, DefaultBuildingConfig())
	bad := []MovementConfig{
		{},
		{Objects: 1, Duration: 100, MaxSpeed: 0},
		{Objects: 1, Duration: 100, MaxSpeed: 1, MinDwell: 10, MaxDwell: 5},
	}
	for i, cfg := range bad {
		if _, err := SimulateMovement(b, cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestGenerateIUPT(t *testing.T) {
	b := mustBuilding(t, DefaultBuildingConfig())
	mcfg := DefaultMovementConfig()
	mcfg.Objects = 5
	mcfg.Duration = 600
	mcfg.MinDwell, mcfg.MaxDwell = 20, 60
	mcfg.MinLifespan, mcfg.MaxLifespan = 300, 600
	trajs, err := SimulateMovement(b, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := DefaultPositioningConfig()
	table, err := GenerateIUPT(b, trajs, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if table.Len() == 0 {
		t.Fatal("empty IUPT")
	}
	for i, rec := range table.SortedRecords() {
		if err := rec.Samples.Validate(); err != nil {
			t.Fatalf("IUPT record %d invalid: %v", i, err)
		}
	}
	st := table.ComputeStats()
	if st.Objects != 5 {
		t.Errorf("objects = %d", st.Objects)
	}
	if st.MaxSampleSize > pcfg.MSS {
		t.Errorf("max sample size %d exceeds mss %d", st.MaxSampleSize, pcfg.MSS)
	}
	// Period bound: per object, consecutive records at most MaxPeriod apart.
	for _, tr := range trajs {
		var times []iupt.Time
		for _, rec := range table.RecordsInRange(tr.Start(), tr.End()) {
			if rec.OID == tr.OID {
				times = append(times, rec.T)
			}
		}
		for i := 1; i < len(times); i++ {
			// RangeQuery order is unspecified; sort first.
			if times[i] < times[i-1] {
				times[i], times[i-1] = times[i-1], times[i]
			}
		}
		for i := 1; i < len(times); i++ {
			if times[i]-times[i-1] > pcfg.MaxPeriod {
				t.Fatalf("object %d gap %d exceeds T=%d", tr.OID, times[i]-times[i-1], pcfg.MaxPeriod)
			}
		}
	}
}

func TestPositioningErrorWithinRadius(t *testing.T) {
	b := mustBuilding(t, DefaultBuildingConfig())
	mcfg := DefaultMovementConfig()
	mcfg.Objects = 3
	mcfg.Duration = 400
	mcfg.MinDwell, mcfg.MaxDwell = 20, 60
	mcfg.MinLifespan, mcfg.MaxLifespan = 200, 400
	trajs, err := SimulateMovement(b, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := DefaultPositioningConfig()
	table, err := GenerateIUPT(b, trajs, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every sampled P-location lies within µ of the true position (modulo
	// the widening fallback, which only fires if no P-location is in
	// range; the lattice guarantees availability here).
	s := b.Space
	truth := map[iupt.ObjectID]map[iupt.Time]TrajPoint{}
	for _, tr := range trajs {
		truth[tr.OID] = map[iupt.Time]TrajPoint{}
		for _, pt := range tr.Points {
			truth[tr.OID][pt.T] = pt
		}
	}
	checked := 0
	for _, rec := range table.SortedRecords() {
		pt := truth[rec.OID][rec.T]
		floor := s.Partition(pt.Partition).Floor
		for _, smp := range rec.Samples {
			pl := s.PLocation(smp.Loc)
			if pl.Floor != floor {
				t.Fatalf("sample on floor %d, object on %d", pl.Floor, floor)
			}
			if d := pl.Pos.Dist(pt.Pos); d > pcfg.ErrorRadius+1e-9 {
				t.Fatalf("sample %.2f m from truth, µ = %v", d, pcfg.ErrorRadius)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestTruncateSamples(t *testing.T) {
	tb := iupt.NewTable()
	tb.Append(iupt.Record{OID: 1, T: 1, Samples: iupt.SampleSet{
		{Loc: 1, Prob: 0.4}, {Loc: 2, Prob: 0.3}, {Loc: 3, Prob: 0.2}, {Loc: 4, Prob: 0.1},
	}})
	out := TruncateSamples(tb, 2)
	rec := out.SortedRecords()[0]
	if len(rec.Samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(rec.Samples))
	}
	if rec.Samples[0].Loc != 1 || rec.Samples[1].Loc != 2 {
		t.Errorf("kept %v, want highest-probability locs 1,2", rec.Samples)
	}
	if math.Abs(rec.Samples[0].Prob-0.4/0.7) > 1e-9 {
		t.Errorf("renormalization wrong: %v", rec.Samples)
	}
	for _, rec := range out.SortedRecords() {
		if err := rec.Samples.Validate(); err != nil {
			t.Error(err)
		}
	}
	// mss=1 keeps the max sample at probability 1.
	one := TruncateSamples(tb, 1)
	if x := one.SortedRecords()[0].Samples; len(x) != 1 || x[0].Prob != 1 {
		t.Errorf("mss=1 truncation = %v", x)
	}
}

func TestDeployReaders(t *testing.T) {
	b := mustBuilding(t, DefaultBuildingConfig())
	cfg := DefaultRFIDConfig()
	dep, err := DeployReaders(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Readers) == 0 {
		t.Fatal("no readers deployed")
	}
	// Non-overlap invariant.
	for i := 0; i < len(dep.Readers); i++ {
		for j := i + 1; j < len(dep.Readers); j++ {
			a, c := dep.Readers[i], dep.Readers[j]
			if a.Floor == c.Floor && a.Pos.Dist(c.Pos) < 2*cfg.Range {
				t.Fatalf("readers %d and %d overlap", i, j)
			}
		}
	}
	// DoorReader consistency.
	for door, rid := range dep.DoorReader {
		if rid >= 0 && dep.Readers[rid].Door != indoor.DoorID(door) {
			t.Fatalf("DoorReader[%d] = %d mismatch", door, rid)
		}
	}
	if _, err := DeployReaders(b, RFIDConfig{Range: 0}); err == nil {
		t.Error("zero range should fail")
	}
}

func TestGenerateRFID(t *testing.T) {
	b := mustBuilding(t, DefaultBuildingConfig())
	mcfg := DefaultMovementConfig()
	mcfg.Objects = 5
	mcfg.Duration = 600
	mcfg.MinDwell, mcfg.MaxDwell = 10, 30
	mcfg.MinLifespan, mcfg.MaxLifespan = 400, 600
	trajs, err := SimulateMovement(b, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := DeployReaders(b, DefaultRFIDConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := GenerateRFID(b, dep, trajs, DefaultRFIDConfig())
	if len(recs) == 0 {
		t.Fatal("no RFID records; moving objects should pass reader ranges")
	}
	for _, r := range recs {
		if r.TS > r.TE {
			t.Fatalf("record interval inverted: %+v", r)
		}
		if r.Reader < 0 || r.Reader >= len(dep.Readers) {
			t.Fatalf("bad reader id %d", r.Reader)
		}
	}
}
