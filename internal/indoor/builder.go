package indoor

import (
	"fmt"

	"tkplq/internal/geom"
)

// Builder assembles a Space. Add* methods record entities and return their
// ids; Build validates the assembly, derives cells, Cells(p) (which carries
// G_ISL and M_IL), the equivalence classes and all mappings, and returns the
// immutable Space.
type Builder struct {
	partitions []Partition
	doors      []Door
	plocs      []PLocation
	slocs      []SLocation
	errs       []error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Partitions returns a read-only view of the partitions added so far,
// letting generators consult bounds while assembling a space.
func (b *Builder) Partitions() []Partition { return b.partitions }

// AddPartition records a partition and returns its id.
func (b *Builder) AddPartition(name string, kind PartitionKind, floor int, bounds geom.Rect) PartitionID {
	id := PartitionID(len(b.partitions))
	if bounds.IsEmpty() || bounds.Area() <= 0 {
		b.errs = append(b.errs, fmt.Errorf("indoor: partition %q (%d) has empty bounds %v", name, id, bounds))
	}
	if floor < 0 {
		b.errs = append(b.errs, fmt.Errorf("indoor: partition %q (%d) has negative floor %d", name, id, floor))
	}
	b.partitions = append(b.partitions, Partition{ID: id, Name: name, Kind: kind, Floor: floor, Bounds: bounds})
	return id
}

// AddDoor records a door between two distinct partitions at a floor-local
// position and returns its id. For cross-floor doors (staircases) the
// position is interpreted on each partition's own floor.
func (b *Builder) AddDoor(p1, p2 PartitionID, pos geom.Point) DoorID {
	id := DoorID(len(b.doors))
	if p1 == p2 {
		b.errs = append(b.errs, fmt.Errorf("indoor: door %d connects partition %d to itself", id, p1))
	}
	for _, p := range [2]PartitionID{p1, p2} {
		if int(p) < 0 || int(p) >= len(b.partitions) {
			b.errs = append(b.errs, fmt.Errorf("indoor: door %d references unknown partition %d", id, p))
		}
	}
	b.doors = append(b.doors, Door{ID: id, Partitions: [2]PartitionID{p1, p2}, Pos: pos})
	return id
}

// AddPartitioningPLoc records a partitioning P-location at the given door
// and returns its id. Its position and floor are taken from the door.
func (b *Builder) AddPartitioningPLoc(door DoorID) PLocID {
	id := PLocID(len(b.plocs))
	pos := geom.Point{}
	floor := 0
	if int(door) < 0 || int(door) >= len(b.doors) {
		b.errs = append(b.errs, fmt.Errorf("indoor: P-location %d references unknown door %d", id, door))
	} else {
		d := b.doors[door]
		pos = d.Pos
		if int(d.Partitions[0]) >= 0 && int(d.Partitions[0]) < len(b.partitions) {
			floor = b.partitions[d.Partitions[0]].Floor
		}
	}
	b.plocs = append(b.plocs, PLocation{
		ID: id, Kind: Partitioning, Pos: pos, Floor: floor, Door: door, Partition: -1,
	})
	return id
}

// AddPresencePLoc records a presence P-location inside the given partition
// and returns its id.
func (b *Builder) AddPresencePLoc(partition PartitionID, pos geom.Point) PLocID {
	id := PLocID(len(b.plocs))
	floor := 0
	if int(partition) < 0 || int(partition) >= len(b.partitions) {
		b.errs = append(b.errs, fmt.Errorf("indoor: P-location %d references unknown partition %d", id, partition))
	} else {
		p := b.partitions[partition]
		floor = p.Floor
		if !p.Bounds.Expand(1e-9).ContainsPoint(pos) {
			b.errs = append(b.errs, fmt.Errorf("indoor: presence P-location %d at %v outside partition %q %v",
				id, pos, p.Name, p.Bounds))
		}
	}
	b.plocs = append(b.plocs, PLocation{
		ID: id, Kind: Presence, Pos: pos, Floor: floor, Door: -1, Partition: partition,
	})
	return id
}

// AddSLocation records a semantic location over the given partitions and
// returns its id. All partitions must end up in the same cell; Build
// verifies this (the paper's single-parent-cell assumption).
func (b *Builder) AddSLocation(name string, partitions ...PartitionID) SLocID {
	id := SLocID(len(b.slocs))
	if len(partitions) == 0 {
		b.errs = append(b.errs, fmt.Errorf("indoor: S-location %q (%d) has no partitions", name, id))
	}
	for _, p := range partitions {
		if int(p) < 0 || int(p) >= len(b.partitions) {
			b.errs = append(b.errs, fmt.Errorf("indoor: S-location %q (%d) references unknown partition %d", name, id, p))
		}
	}
	b.slocs = append(b.slocs, SLocation{ID: id, Name: name, Partitions: append([]PartitionID(nil), partitions...)})
	return id
}

// Build validates the assembly and derives the immutable Space.
func (b *Builder) Build() (*Space, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.partitions) == 0 {
		return nil, fmt.Errorf("indoor: space has no partitions")
	}

	s := &Space{
		partitions: b.partitions,
		doors:      b.doors,
		plocs:      b.plocs,
		slocs:      b.slocs,
	}

	// Floor layout for the global plane.
	maxFloor, maxX := 0, 0.0
	for _, p := range b.partitions {
		if p.Floor > maxFloor {
			maxFloor = p.Floor
		}
		if p.Bounds.MaxX > maxX {
			maxX = p.Bounds.MaxX
		}
	}
	s.numFloors = maxFloor + 1
	s.floorOffset = maxX + 50 // 50 m gap keeps floors disjoint in the plane

	b.deriveCells(s)
	if err := b.deriveSLocMappings(s); err != nil {
		return nil, err
	}
	b.derivePLocCells(s)
	b.deriveClasses(s)

	return s, nil
}

// deriveCells computes cells as connected components of partitions linked by
// unmonitored doors (doors with no partitioning P-location).
func (b *Builder) deriveCells(s *Space) {
	monitored := make([]bool, len(b.doors))
	for _, p := range b.plocs {
		if p.Kind == Partitioning {
			monitored[p.Door] = true
		}
	}

	parent := make([]int, len(b.partitions))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, c int) {
		ra, rc := find(a), find(c)
		if ra != rc {
			parent[ra] = rc
		}
	}
	for i, d := range b.doors {
		if !monitored[i] {
			union(int(d.Partitions[0]), int(d.Partitions[1]))
		}
	}

	// Assign cell ids in order of first partition appearance for stability.
	cellOf := make(map[int]CellID)
	s.partitionCell = make([]CellID, len(b.partitions))
	for i := range b.partitions {
		root := find(i)
		id, ok := cellOf[root]
		if !ok {
			id = CellID(len(s.cells))
			cellOf[root] = id
			s.cells = append(s.cells, Cell{ID: id})
		}
		s.partitionCell[i] = id
		s.cells[id].Partitions = append(s.cells[id].Partitions, PartitionID(i))
	}
}

// deriveSLocMappings computes Cell (S-location -> parent cell) and C2S
// (cell -> S-locations), verifying the single-parent-cell assumption.
func (b *Builder) deriveSLocMappings(s *Space) error {
	s.cellOfSLoc = make([]CellID, len(b.slocs))
	s.slocsOfCell = make([][]SLocID, len(s.cells))
	s.slocsByPartition = make([][]SLocID, len(b.partitions))
	for i, sl := range b.slocs {
		cell := s.partitionCell[sl.Partitions[0]]
		for _, pid := range sl.Partitions[1:] {
			if s.partitionCell[pid] != cell {
				return fmt.Errorf("indoor: S-location %q (%d) spans cells %d and %d; an S-location must have a single parent cell",
					sl.Name, sl.ID, cell, s.partitionCell[pid])
			}
		}
		s.cellOfSLoc[i] = cell
		s.slocsOfCell[cell] = append(s.slocsOfCell[cell], SLocID(i))
		for _, pid := range sl.Partitions {
			s.slocsByPartition[pid] = append(s.slocsByPartition[pid], SLocID(i))
		}
	}
	return nil
}

// derivePLocCells computes Cells(p) for every P-location.
func (b *Builder) derivePLocCells(s *Space) {
	s.plocCells = make([][]CellID, len(b.plocs))
	for i, p := range b.plocs {
		var cells []CellID
		if p.Kind == Partitioning {
			d := b.doors[p.Door]
			c1 := s.partitionCell[d.Partitions[0]]
			c2 := s.partitionCell[d.Partitions[1]]
			if c1 == c2 {
				// A monitored door whose sides were merged through another
				// unmonitored route does not actually separate cells.
				cells = []CellID{c1}
			} else if c1 < c2 {
				cells = []CellID{c1, c2}
			} else {
				cells = []CellID{c2, c1}
			}
		} else {
			cells = []CellID{s.partitionCell[p.Partition]}
		}
		s.plocCells[i] = cells
	}
}

// deriveClasses groups P-locations with identical Cells(p) into equivalence
// classes keyed by the smallest member id (§3.1.2).
func (b *Builder) deriveClasses(s *Space) {
	reps := make(map[string]PLocID)
	s.classRep = make([]PLocID, len(b.plocs))
	for i := range b.plocs {
		key := cellsKey(s.plocCells[i])
		rep, ok := reps[key]
		if !ok {
			rep = PLocID(i)
			reps[key] = rep
		}
		s.classRep[i] = rep
	}
}

func cellsKey(cells []CellID) string {
	buf := make([]byte, 0, len(cells)*4)
	for _, c := range cells {
		buf = append(buf, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
	}
	return string(buf)
}
