// Package indoor models indoor spaces the way the paper does (§2.1, §3.1):
// partitions (rooms, hallways, staircases) connected by doors; positioning
// P-locations that are either *partitioning* (mounted at doors, splitting the
// space into cells) or *presence* (inside a cell); user-defined semantic
// S-locations; and the cells induced by the partitioning P-locations.
//
// The paper's Indoor Space Location Graph G_ISL is held as Cells(p)
// (PLocCells): the edge labelled p joins the cells of Cells(p), and is a loop
// when Cells(p) holds one cell. The Indoor Location Matrix M_IL is Space.MIL,
// computed on demand from two Cells(p) lookups; ClassRep gives its
// equivalence classes.
//
// Spaces are immutable once built. Use Builder to assemble one; Build derives
// cells, Cells(p), the equivalence classes and all mappings, and validates
// consistency.
package indoor

import (
	"fmt"

	"tkplq/internal/geom"
)

// PartitionID identifies a partition (room/hallway/staircase).
type PartitionID int32

// DoorID identifies a door between two partitions.
type DoorID int32

// PLocID identifies a positioning P-location.
type PLocID int32

// SLocID identifies a semantic S-location.
type SLocID int32

// CellID identifies a derived indoor cell.
type CellID int32

// NoCell marks the absence of a cell reference.
const NoCell CellID = -1

// PartitionKind classifies partitions. The paper treats hallways and
// staircases as rooms for topology purposes; the kind is retained for data
// generation and reporting.
type PartitionKind uint8

// Partition kinds.
const (
	Room PartitionKind = iota
	Hallway
	Staircase
)

// String implements fmt.Stringer.
func (k PartitionKind) String() string {
	switch k {
	case Room:
		return "room"
	case Hallway:
		return "hallway"
	case Staircase:
		return "staircase"
	default:
		return fmt.Sprintf("PartitionKind(%d)", uint8(k))
	}
}

// PLocKind distinguishes partitioning from presence P-locations (§2.1).
type PLocKind uint8

// P-location kinds.
const (
	// Partitioning P-locations sit at doors; an object cannot change cell
	// without being observed at one.
	Partitioning PLocKind = iota
	// Presence P-locations merely witness an object inside a cell.
	Presence
)

// String implements fmt.Stringer.
func (k PLocKind) String() string {
	if k == Partitioning {
		return "partitioning"
	}
	return "presence"
}

// Partition is an indoor partition with floor-local axis-aligned bounds.
type Partition struct {
	ID     PartitionID
	Name   string
	Kind   PartitionKind
	Floor  int
	Bounds geom.Rect // floor-local coordinates
}

// Door connects exactly two distinct partitions. Doors between partitions on
// different floors model staircase landings.
type Door struct {
	ID         DoorID
	Partitions [2]PartitionID
	Pos        geom.Point // floor-local; shared by both sides
}

// PLocation is a discrete positioning location (§2.1). A partitioning
// P-location references the door it monitors; a presence P-location
// references its containing partition.
type PLocation struct {
	ID        PLocID
	Kind      PLocKind
	Pos       geom.Point // floor-local
	Floor     int
	Door      DoorID      // valid iff Kind == Partitioning
	Partition PartitionID // valid iff Kind == Presence
}

// SLocation is a user-defined semantic location: one or more partitions that
// must belong to a single cell (the paper's parent-cell assumption, §3.1.1).
type SLocation struct {
	ID         SLocID
	Name       string
	Partitions []PartitionID
}

// Cell is a maximal group of partitions an object can roam without passing
// any partitioning P-location.
type Cell struct {
	ID         CellID
	Partitions []PartitionID
}

// Space is an immutable, validated indoor space with all derived structures.
type Space struct {
	partitions []Partition
	doors      []Door
	plocs      []PLocation
	slocs      []SLocation
	cells      []Cell

	partitionCell    []CellID   // partition -> cell
	cellOfSLoc       []CellID   // S-location -> parent cell (paper's Cell mapping)
	slocsOfCell      [][]SLocID // cell -> S-locations (paper's C2S mapping)
	slocsByPartition [][]SLocID // partition -> S-locations using it
	plocCells        [][]CellID // P-location -> incident cells, sorted (Cells(p))
	classRep         []PLocID   // P-location -> smallest-id equivalent P-location

	floorOffset float64 // X translation between consecutive floors
	numFloors   int
}

// NumPartitions returns the number of partitions.
func (s *Space) NumPartitions() int { return len(s.partitions) }

// NumDoors returns the number of doors.
func (s *Space) NumDoors() int { return len(s.doors) }

// NumPLocations returns the number of P-locations.
func (s *Space) NumPLocations() int { return len(s.plocs) }

// NumSLocations returns the number of S-locations.
func (s *Space) NumSLocations() int { return len(s.slocs) }

// NumCells returns the number of derived cells.
func (s *Space) NumCells() int { return len(s.cells) }

// NumFloors returns the number of floors (max floor index + 1).
func (s *Space) NumFloors() int { return s.numFloors }

// Partition returns the partition with the given id.
func (s *Space) Partition(id PartitionID) Partition { return s.partitions[id] }

// Door returns the door with the given id.
func (s *Space) Door(id DoorID) Door { return s.doors[id] }

// PLocation returns the P-location with the given id.
func (s *Space) PLocation(id PLocID) PLocation { return s.plocs[id] }

// SLocation returns the S-location with the given id.
func (s *Space) SLocation(id SLocID) SLocation { return s.slocs[id] }

// Cell returns the cell with the given id.
func (s *Space) Cell(id CellID) Cell { return s.cells[id] }

// CellOfSLoc implements the paper's Cell mapping: the parent cell of an
// S-location.
func (s *Space) CellOfSLoc(id SLocID) CellID { return s.cellOfSLoc[id] }

// SLocsOfCell implements the paper's C2S mapping: the S-locations contained
// in a cell. The returned slice must not be modified.
func (s *Space) SLocsOfCell(id CellID) []SLocID { return s.slocsOfCell[id] }

// PLocCells returns Cells(p): the sorted cells incident to a P-location
// (two for a partitioning P-location separating distinct cells, one
// otherwise). The returned slice must not be modified.
func (s *Space) PLocCells(id PLocID) []CellID { return s.plocCells[id] }

// ClassRep returns the representative (smallest id) of p's equivalence
// class: P-locations with identical Cells(p) are interchangeable in M_IL
// lookups (§3.1.2) and are merged by the intra-merge reduction.
func (s *Space) ClassRep(id PLocID) PLocID { return s.classRep[id] }

// MIL implements the Indoor Location Matrix lookup M_IL[pi, pj] (§3.1.2):
// the cells through which pj is directly reachable from pi. For pi == pj it
// returns Cells(pi) (the adjacent cells of a partitioning P-location, or the
// containing cell of a presence P-location). The result is sorted; it may
// alias internal storage and must not be modified.
//
// derivePLocCells gives every P-location one or two sorted, distinct cells,
// so the intersection is a[:1], a[1:], a or empty: four compares decide
// whether b holds a's first and last cell, and the result never allocates.
// Each compare is its own assignment so that the compiler emits conditional
// moves; whether two P-locations share a cell is data, and a mispredicted
// branch per lookup was the Eq.-1 kernel's largest cost.
func (s *Space) MIL(pi, pj PLocID) []CellID {
	a, b := s.plocCells[pi], s.plocCells[pj]
	b0, b1 := b[0], b[len(b)-1]
	first, last := a[0], a[len(a)-1]
	lo, hi := 1, len(a)-1
	if first == b0 {
		lo = 0
	}
	if first == b1 {
		lo = 0
	}
	if last == b0 {
		hi = len(a)
	}
	if last == b1 {
		hi = len(a)
	}
	return a[lo:max(lo, hi)]
}

// GlobalPoint maps a floor-local point to global plane coordinates. Floors
// are laid out side by side along X so that rectangles on different floors
// never intersect; R-tree pruning then respects floor separation.
func (s *Space) GlobalPoint(floor int, p geom.Point) geom.Point {
	return geom.Point{X: p.X + float64(floor)*s.floorOffset, Y: p.Y}
}

// GlobalRect maps a floor-local rectangle to global plane coordinates.
func (s *Space) GlobalRect(floor int, r geom.Rect) geom.Rect {
	dx := float64(floor) * s.floorOffset
	return geom.Rect{MinX: r.MinX + dx, MinY: r.MinY, MaxX: r.MaxX + dx, MaxY: r.MaxY}
}

// PartitionGlobalBounds returns the partition's bounds in the global plane.
func (s *Space) PartitionGlobalBounds(id PartitionID) geom.Rect {
	p := s.partitions[id]
	return s.GlobalRect(p.Floor, p.Bounds)
}

// SLocBounds returns the S-location's MBR in the global plane.
func (s *Space) SLocBounds(id SLocID) geom.Rect {
	out := geom.EmptyRect()
	for _, pid := range s.slocs[id].Partitions {
		out = out.Union(s.PartitionGlobalBounds(pid))
	}
	return out
}

// SLocsContaining returns the S-locations that geometrically contain the
// P-location: for a presence P-location, the S-locations of its partition;
// for a partitioning P-location (on a door), the S-locations of both sides.
// This is the containment the simple-counting baselines use (§5.1: "Both SC
// and SC-ρ allow a P-location to be counted in multiple S-locations that all
// contain it").
func (s *Space) SLocsContaining(id PLocID) []SLocID {
	p := s.plocs[id]
	var parts []PartitionID
	if p.Kind == Presence {
		parts = []PartitionID{p.Partition}
	} else {
		d := s.doors[p.Door]
		parts = d.Partitions[:]
	}
	var out []SLocID
	seen := make(map[SLocID]bool, 2)
	for _, pid := range parts {
		for _, sl := range s.slocsByPartition[pid] {
			if !seen[sl] {
				seen[sl] = true
				out = append(out, sl)
			}
		}
	}
	return out
}

// SLocsOfPartition returns all S-locations that include the partition.
// The returned slice must not be modified.
func (s *Space) SLocsOfPartition(id PartitionID) []SLocID {
	return s.slocsByPartition[id]
}
