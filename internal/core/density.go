package core

import "tkplq/internal/indoor"

// densityRank divides each location's flow by its floor area and re-ranks,
// dropping zero-area locations. The finisher is its one caller.
func (d *Driver) densityRank(full []Result, k int) []Result {
	out := make([]Result, 0, len(full))
	for _, r := range full {
		area := d.SLocArea(r.SLoc)
		if area <= 0 {
			continue
		}
		out = append(out, Result{SLoc: r.SLoc, Flow: r.Flow / area})
	}
	return rankTopK(out, k)
}

// SLocArea returns the S-location's floor area in square meters: the sum of
// its partitions' areas (not the MBR, which overestimates L-shaped
// locations).
func (d *Driver) SLocArea(s indoor.SLocID) float64 {
	area := 0.0
	for _, pid := range d.space.SLocation(s).Partitions {
		area += d.space.Partition(pid).Bounds.Area()
	}
	return area
}
