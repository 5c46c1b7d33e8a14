package core

import (
	"cmp"
	"math"
	"slices"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// path is one partially constructed possible path during enumeration:
// the tail P-location, the accumulated probability Π prob_j, and for every
// cell encountered in a pair's M_IL entry, the accumulated no-pass product
// Π (1 - pr_j⊨c). Cells absent from noPass have product 1 (never passable).
type path struct {
	tail   indoor.PLocID
	prob   float64
	noPass map[indoor.CellID]float64
}

// summarizeEnum materializes the valid possible paths exactly as paper
// Algorithm 2 (lines 9-15) constructs them: start with X1's samples, extend
// level by level, dropping extensions whose consecutive pair has an empty
// M_IL entry. It returns ErrPathBudget when the live path set would exceed
// the budget (DefaultPathBudget unless a test set Options.pathBudget).
func (e *Engine) summarizeEnum(seq []iupt.SampleSet) (*ObjectSummary, error) {
	sum := &ObjectSummary{}
	if len(seq) == 0 {
		return sum, nil
	}
	passMass := make(map[indoor.CellID]float64)
	budget := cmp.Or(e.opts.pathBudget, DefaultPathBudget)

	paths := make([]path, 0, len(seq[0]))
	for _, s := range seq[0] {
		paths = append(paths, path{tail: s.Loc, prob: s.Prob})
	}

	logScale := 0.0
	for i := 1; i < len(seq); i++ {
		xi := seq[i]
		if len(paths)*len(xi) > budget {
			return nil, ErrPathBudget
		}
		next := make([]path, 0, len(paths))
		for _, ph := range paths {
			for _, s := range xi {
				cells := e.space.MIL(ph.tail, s.Loc)
				if len(cells) == 0 {
					continue // invalid candidate, ruled out by topology
				}
				pr := 1.0 / float64(len(cells)) // §2.3 step 1: 1/|M_IL[a,b]|
				np := path{tail: s.Loc, prob: ph.prob * s.Prob}
				np.noPass = make(map[indoor.CellID]float64, len(ph.noPass)+len(cells))
				for c, v := range ph.noPass {
					np.noPass[c] = v
				}
				for _, c := range cells {
					v, okc := np.noPass[c]
					if !okc {
						v = 1
					}
					np.noPass[c] = v * (1 - pr)
				}
				next = append(next, np)
			}
		}
		paths = next
		if len(paths) == 0 {
			return sum, nil // no valid path survives
		}
		// Rescale decaying mass exactly like the DP engine (see
		// ObjectSummary.LogScale).
		total := 0.0
		for _, ph := range paths {
			total += ph.prob
		}
		if total > 0 && total < rescaleThreshold {
			inv := 1 / total
			for pi := range paths {
				paths[pi].prob *= inv
			}
			logScale += math.Log(total)
		}
	}

	if len(seq) == 1 {
		// Single sample set: a path is a lone P-location; its pass
		// probability w.r.t. a cell uses M_IL[loc, loc] = Cells(loc).
		for _, ph := range paths {
			sum.ValidMass += ph.prob
			cells := e.space.PLocCells(ph.tail)
			pr := 1.0 / float64(len(cells))
			for _, c := range cells {
				passMass[c] += ph.prob * pr
			}
		}
		sum.PassMass = sortedMasses(passMass)
		sum.Paths = int64(len(paths))
		return sum, nil
	}

	for _, ph := range paths {
		sum.ValidMass += ph.prob
		for c, np := range ph.noPass {
			if mass := ph.prob * (1 - np); mass != 0 {
				passMass[c] += mass
			}
		}
	}
	sum.PassMass = sortedMasses(passMass)
	sum.LogScale = logScale
	sum.Paths = int64(len(paths))
	return sum, nil
}

// sortedMasses converts the enumeration's per-cell accumulator into the
// summary's cell-sorted PassMass. Each cell's sum was taken in path order as
// it accumulated; the conversion only orders the finished sums.
func sortedMasses(m map[indoor.CellID]float64) []CellMass {
	if len(m) == 0 {
		return nil
	}
	ms := make([]CellMass, 0, len(m))
	for c, mass := range m {
		ms = append(ms, CellMass{Cell: c, Mass: mass})
	}
	slices.SortFunc(ms, byCell)
	return ms
}
