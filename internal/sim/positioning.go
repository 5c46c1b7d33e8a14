package sim

import (
	"math/rand"
	"slices"
	"sort"

	"tkplq/internal/geom"
	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/rtree"
)

// PositioningConfig parametrizes the WkNN fingerprint-positioning sampler
// (paper §5.3 "Moving Objects and IUPT"): after each update an object stays
// silent for at most MaxPeriod seconds; an update holds 1..MSS samples whose
// P-locations lie within ErrorRadius meters of the true position, weighted
// by w = 1/(dist · (1+γ)) with γ uniform in [-Gamma, +Gamma].
type PositioningConfig struct {
	// MaxPeriod is T, the maximum positioning period in seconds (paper
	// default 3).
	MaxPeriod iupt.Time
	// MSS is the maximum sample-set size (paper default 4).
	MSS int
	// ErrorRadius is µ, the indoor positioning error in meters (paper
	// default 5 on synthetic data).
	ErrorRadius float64
	// Gamma bounds the multiplicative weight noise (paper: 0.2).
	Gamma float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultWallFactor attenuates the WkNN weight of candidate P-locations
// separated from the object's true partition by a wall (neither inside it
// nor on one of its doors), emulating signal attenuation: walls damp
// Wi-Fi/BLE signals, so through-wall reference points rarely win the
// fingerprint match.
const DefaultWallFactor = 0.2

// DefaultPositioningConfig matches the paper's synthetic defaults:
// T = 3 s, mss = 4, µ = 5 m, γ ∈ [-0.2, 0.2].
func DefaultPositioningConfig() PositioningConfig {
	return PositioningConfig{MaxPeriod: 3, MSS: 4, ErrorRadius: 5, Gamma: 0.2, Seed: 7}
}

// plocIndex answers "P-locations near a floor-local point" queries.
type plocIndex struct {
	space *indoor.Space
	tree  *rtree.Tree[indoor.PLocID]
}

func newPLocIndex(s *indoor.Space) *plocIndex {
	items := make([]rtree.BulkItem[indoor.PLocID], 0, s.NumPLocations())
	for i := 0; i < s.NumPLocations(); i++ {
		p := s.PLocation(indoor.PLocID(i))
		gp := s.GlobalPoint(p.Floor, p.Pos)
		items = append(items, rtree.BulkItem[indoor.PLocID]{
			Rect: geom.RectAround(gp, 0),
			Item: indoor.PLocID(i),
		})
	}
	return &plocIndex{space: s, tree: rtree.BulkLoad(rtree.DefaultMaxEntries, items)}
}

// near returns P-locations within radius of the floor-local point, sorted by
// ascending distance. If none qualify, the nearest P-location on the floor
// is returned (positioning systems always report something).
func (ix *plocIndex) near(floor int, pos geom.Point, radius float64) []plocDist {
	gp := ix.space.GlobalPoint(floor, pos)
	var out []plocDist
	ix.tree.Search(geom.RectAround(gp, radius), func(r geom.Rect, id indoor.PLocID) bool {
		d := r.Center().Dist(gp)
		if d <= radius {
			out = append(out, plocDist{id: id, dist: d})
		}
		return true
	})
	if len(out) == 0 {
		// Widen until something is found (bounded by the floor span).
		for r := radius * 2; len(out) == 0 && r < 1e7; r *= 2 {
			ix.tree.Search(geom.RectAround(gp, r), func(rc geom.Rect, id indoor.PLocID) bool {
				out = append(out, plocDist{id: id, dist: rc.Center().Dist(gp)})
				return true
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].dist != out[j].dist {
			return out[i].dist < out[j].dist
		}
		return out[i].id < out[j].id
	})
	return out
}

type plocDist struct {
	id     indoor.PLocID
	dist   float64
	weight float64
}

// GenerateIUPT converts ground-truth trajectories into an Indoor Uncertain
// Positioning Table using the WkNN model. It is a materializing shell over
// StreamIUPT: records arrive already in canonical order, so the table this
// returns and a file written straight off the stream hold identical bytes.
func GenerateIUPT(b *Building, trajs []Trajectory, cfg PositioningConfig) (*iupt.Table, error) {
	recs, err := generateRecords(b, trajs, cfg)
	if err != nil {
		return nil, err
	}
	table := iupt.NewTable()
	table.Append(recs...)
	return table, nil
}

// generateRecords drains StreamIUPT once: the records of GenerateIUPT's
// table, in canonical order.
func generateRecords(b *Building, trajs []Trajectory, cfg PositioningConfig) ([]iupt.Record, error) {
	stream, err := StreamIUPT(b, trajs, cfg)
	if err != nil {
		return nil, err
	}
	var recs []iupt.Record
	for rec, ok := stream.Next(); ok; rec, ok = stream.Next() {
		recs = append(recs, rec)
	}
	return recs, nil
}

// sampleWkNN draws one positioning record's sample set: |X| P-locations
// (|X| uniform in 1..MSS) picked within the error radius of the true
// position, weighted by inverse noisy distance à la WkNN with through-wall
// attenuation, and normalized.
func sampleWkNN(rng *rand.Rand, ix *plocIndex, floor int, truePart indoor.PartitionID, pos geom.Point, cfg PositioningConfig) iupt.SampleSet {
	cands := ix.near(floor, pos, cfg.ErrorRadius)
	if len(cands) == 0 {
		return nil
	}
	// Signal-strength weight per candidate: inverse squared distance,
	// attenuated through walls.
	for i := range cands {
		cands[i].weight = invSq(cands[i].dist) * ix.visibility(cands[i].id, truePart)
	}
	n := 1 + rng.Intn(cfg.MSS)
	if n > len(cands) {
		n = len(cands)
	}
	// Weight-proportional draw without replacement: WkNN returns the
	// reference points whose signals best match the current position, so
	// nearby same-room P-locations (in particular door points during a
	// crossing) dominate the draw; a uniform draw would regularly miss
	// them and fabricate topologically impossible transitions.
	weightedSubset(rng, cands, n)
	cands = cands[:n]
	out := make(iupt.SampleSet, 0, n)
	total := 0.0
	for _, c := range cands {
		if c.weight <= 0 {
			continue
		}
		d := c.dist
		if d < 0.1 {
			d = 0.1 // avoid infinite weight at zero distance
		}
		gamma := (rng.Float64()*2 - 1) * cfg.Gamma
		w := ix.visibility(c.id, truePart) / (d * (1 + gamma))
		out = append(out, iupt.Sample{Loc: c.id, Prob: w})
		total += w
	}
	if total <= 0 {
		return nil
	}
	for i := range out {
		out[i].Prob /= total
	}
	return out
}

// visibility returns the attenuation factor between a candidate P-location
// and the object's true partition: 1 when the candidate is inside the
// partition or on one of its doors, DefaultWallFactor otherwise.
func (ix *plocIndex) visibility(id indoor.PLocID, truePart indoor.PartitionID) float64 {
	p := ix.space.PLocation(id)
	if p.Kind == indoor.Presence {
		if p.Partition == truePart {
			return 1
		}
		return DefaultWallFactor
	}
	d := ix.space.Door(p.Door)
	if d.Partitions[0] == truePart || d.Partitions[1] == truePart {
		return 1
	}
	return DefaultWallFactor
}

// weightedSubset moves a weight-proportional sample of size n (drawn
// without replacement) to the front of cands.
func weightedSubset(rng *rand.Rand, cands []plocDist, n int) {
	for i := 0; i < n; i++ {
		total := 0.0
		for j := i; j < len(cands); j++ {
			total += cands[j].weight
		}
		if total <= 0 {
			return
		}
		r := rng.Float64() * total
		pick := i
		cum := 0.0
		for j := i; j < len(cands); j++ {
			cum += cands[j].weight
			if r <= cum {
				pick = j
				break
			}
		}
		cands[i], cands[pick] = cands[pick], cands[i]
	}
}

func invSq(d float64) float64 {
	if d < 0.3 {
		d = 0.3
	}
	return 1 / (d * d)
}

// TruncateSamples caps every record's sample set at mss samples, keeping
// the highest-probability ones and renormalizing — the paper's §5.2.2
// procedure for studying the effect of sample capacity. It returns a new
// table; the input is unchanged.
func TruncateSamples(t *iupt.Table, mss int) *iupt.Table {
	recs := slices.Clone(t.SortedRecords())
	for i := range recs {
		x := recs[i].Samples.Clone()
		if len(x) > mss {
			sort.SliceStable(x, func(a, b int) bool { return x[a].Prob > x[b].Prob })
			x = x[:mss]
		}
		x.Normalize()
		recs[i].Samples = x
	}
	out := iupt.NewTable()
	out.Append(recs...)
	return out
}
