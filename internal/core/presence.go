package core

import (
	"cmp"
	"math"

	"tkplq/internal/geom"
	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// rectWithFloor tags a global-plane rectangle with its floor, used when
// inserting PSL MBRs into the Best-First aggregate R-tree.
type rectWithFloor struct {
	floor int
	rect  geom.Rect
}

// ObjectSummary condenses everything Equation 1 needs about one object's
// valid possible paths: the total probability mass of valid paths and, for
// every cell c the paths can pass, the pass-weighted mass
// Σ_φ pr_φ · pr_{φ⊨c}. The presence in any S-location q then follows as a
// lookup of Cell(q) — this is the "intermediate result sharing" of
// Algorithm 3, factored into a reusable form.
type ObjectSummary struct {
	// ValidMass is Σ_{φ∈P} pr_φ over valid paths, divided by exp(LogScale).
	// For short sequences LogScale is 0 and ValidMass is the exact mass;
	// long sequences with many pruned transitions have masses that decay
	// below float64 range, so the engines rescale internally and track the
	// scale here. Presence ratios are unaffected by the scale.
	ValidMass float64
	// PassMass holds, for every cell c the valid paths can pass,
	// Σ_{φ∈P} pr_φ · pr_{φ⊨c} divided by exp(LogScale) like ValidMass —
	// sorted by ascending cell, one entry per cell, allocated at exact size.
	// A cell without an entry has mass 0.
	PassMass []CellMass
	// LogScale is the natural log of the common factor divided out of
	// ValidMass and PassMass (0 unless rescaling was necessary).
	LogScale float64
	// Paths is the number of valid paths materialized (enumeration engine;
	// 0 for the DP engine).
	Paths int64
	// Segments is the number of maximal topologically-consistent segments
	// the sequence was split into (1 when no impossible step occurred; see
	// Options.StrictPaths).
	Segments int
}

// CellMass is one entry of ObjectSummary.PassMass.
type CellMass struct {
	Cell indoor.CellID
	Mass float64
}

// rescaleThreshold triggers internal rescaling of the decaying path mass;
// well above the subnormal range so products of pass probabilities retain
// full precision.
const rescaleThreshold = 1e-30

// Presence evaluates Equation 1 for the S-location whose parent cell is
// cell. Objects with no valid path have presence 0.
func (s *ObjectSummary) Presence(cell indoor.CellID, mode PresenceMode) float64 {
	return s.presenceOf(s.mass(cell), mode)
}

// mass returns the cell's pass mass, by binary search over PassMass.
func (s *ObjectSummary) mass(cell indoor.CellID) float64 {
	pm := s.PassMass
	lo, hi := 0, len(pm)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pm[mid].Cell < cell {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(pm) && pm[lo].Cell == cell {
		return pm[lo].Mass
	}
	return 0
}

// presenceOf is Equation 1 for a cell whose pass mass is mass.
func (s *ObjectSummary) presenceOf(mass float64, mode PresenceMode) float64 {
	if mode == UnnormalizedTotal {
		if s.LogScale != 0 {
			return mass * math.Exp(s.LogScale)
		}
		return mass
	}
	if s.ValidMass <= 0 {
		return 0
	}
	return mass / s.ValidMass
}

// Summarize computes the object summary for a reduced sequence, dispatching
// on the configured engine. When the enumeration engine exceeds the path
// budget, the DP engine takes over (the values are identical by
// construction); fellBack reports that this happened.
//
// Long low-quality sequences can contain a step where no sample pair is
// topologically compatible — the paper's model then has an empty valid-path
// set and the object's presence degenerates to 0 everywhere, even if the
// rest of the sequence is perfectly informative. Unless Options.StrictPaths
// is set, Summarize cuts the sequence at such impossible steps (lookup) into
// maximal consistent segments, evaluates each, and combines the per-cell
// presences with the same union rule Equation 2 applies across a path's
// steps: presence = 1 - Π_seg (1 - presence_seg). Sequences without
// impossible steps are unaffected, so this never changes the paper's worked
// examples.
func (e *Engine) Summarize(seq []iupt.SampleSet) (sum *ObjectSummary, fellBack bool) {
	scr := e.getScratch()
	defer e.putScratch(scr)
	return e.summarizeScratch(seq, scr)
}

// summarizeScratch is Summarize with an explicit scratch arena, the form the
// oracle's shard workers call so one arena serves a whole shard of objects.
func (e *Engine) summarizeScratch(seq []iupt.SampleSet, scr *summarizeScratch) (sum *ObjectSummary, fellBack bool) {
	return e.summarizeWalk(seq, scr, !e.opts.StrictPaths, e.opts.Engine == EngineEnum)
}

// unionAdd merges one segment's cell-sorted pass masses into the union's
// no-pass products Π_seg (1 - presence_seg) per cell, kept cell-sorted in
// scr.union: every cell's product is taken in segment order, starting from 1
// where the cell first appears.
func (scr *summarizeScratch) unionAdd(seg *ObjectSummary, mode PresenceMode) {
	noPass, merged := scr.union, scr.unionNext[:0]
	i := 0
	for _, cm := range seg.PassMass {
		for i < len(noPass) && noPass[i].Cell < cm.Cell {
			merged = append(merged, noPass[i])
			i++
		}
		np := 1.0
		if i < len(noPass) && noPass[i].Cell == cm.Cell {
			np = noPass[i].Mass
			i++
		}
		merged = append(merged, CellMass{Cell: cm.Cell, Mass: np * (1 - seg.presenceOf(cm.Mass, mode))})
	}
	scr.union, scr.unionNext = append(merged, noPass[i:]...), noPass
}

func byCell(a, b CellMass) int { return cmp.Compare(a.Cell, b.Cell) }
