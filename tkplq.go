package tkplq

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"tkplq/internal/core"
	"tkplq/internal/eval"
	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/sim"
)

// System couples an indoor space with an IUPT and answers flow and TkPLQ
// queries. A System is safe for concurrent use once constructed: queries
// fan per-object work out over a bounded worker pool (Options.Workers) and
// share a window cache that is internally synchronized.
type System struct {
	space  *indoor.Space
	table  *iupt.Table
	engine *core.Engine

	// ingestMu serializes Ingest (and Snapshot) so the store's log order
	// always matches the table's apply order — the property that makes WAL
	// recovery bit-identical to the uninterrupted table.
	ingestMu sync.Mutex
	persist  *PartitionedStore
}

// NewSystem builds a query system over the space and table. The zero
// Options value selects the defaults used throughout the paper evaluation:
// DP engine, normalized presence (Equation 1), full data reduction.
func NewSystem(space *Space, table *Table, opts Options) (*System, error) {
	if space == nil {
		return nil, fmt.Errorf("tkplq: nil space")
	}
	if table == nil {
		return nil, fmt.Errorf("tkplq: nil table")
	}
	return &System{
		space:  space,
		table:  table,
		engine: core.NewEngine(space, opts),
	}, nil
}

// Space returns the system's indoor space.
func (s *System) Space() *Space { return s.space }

// Table returns the system's positioning table.
func (s *System) Table() *Table { return s.table }

// Do evaluates one query — the single entry point behind every query kind
// (TkPLQ, density, flow, presence). The context bounds the evaluation end to
// end: on cancellation or deadline the shard worker pool stops between
// objects, a coalesced follower detaches from its flight without disturbing
// the other callers, and Do returns ctx.Err(). Query carries per-query
// overrides (worker-pool size, cache bypass, coalescing bypass) that apply
// to this call only.
func (s *System) Do(ctx context.Context, q Query) (*Response, error) {
	return s.engine.Do(ctx, s.table, q)
}

// DoBatch evaluates a set of queries, amortizing shared work: queries over
// the same time window perform the per-object data reduction (Algorithm 1)
// and presence summarization (Equation 1) once for the whole group before
// fanning out the cheap per-query ranking. Rankings and flows are
// bit-identical to issuing each query through Do sequentially, at every
// worker count; Stats.SharedBatch on each response reports the group size.
// The whole batch is validated up front and responses align with qs.
func (s *System) DoBatch(ctx context.Context, qs []Query) ([]*Response, error) {
	return s.engine.DoBatch(ctx, s.table, qs)
}

// Partial is one node's per-object contribution to a distributed query: for
// every local object in the window that survived pruning, the object's
// presence in each queried S-location, in ascending object order. Shards
// produce Partials with System.DoPartial; a router merges them with
// MergePartials and finishes the ranking with System.FinishPartial. A
// standalone Do is the one-shard case of the same pass and finisher, so the
// floating-point additions happen in the same canonical ascending-object
// order and the distributed answer is bit-identical to the standalone one.
type Partial = core.Partial

// DoPartial evaluates this system's local contribution to a distributed
// query: per-object presence rows over q.SLocs for the system's objects in
// [q.Ts, q.Te]. All query kinds are accepted; q.Algorithm is ignored (all
// three TkPLQ algorithms produce bit-identical flows, so the merged answer
// matches a standalone run of any of them).
func (s *System) DoPartial(ctx context.Context, q Query) (*Partial, error) {
	return s.engine.DoPartial(ctx, s.table, q)
}

// MergePartials merges disjoint per-shard partials into one canonical
// ascending-object stream. An object contributed by more than one partial
// (overlapping shard partitions) is a hard error.
func MergePartials(parts []*Partial) (*Partial, error) { return core.MergePartials(parts) }

// FinishPartial completes a distributed query from a merged partial: the
// flow accumulation and ranking a standalone Do runs, over the merged rows.
func (s *System) FinishPartial(q Query, merged *Partial) (*Response, error) {
	return s.engine.FinishPartial(q, merged)
}

// IngestError reports the first record of an Ingest batch that failed
// validation, with enough structure for callers (e.g. the HTTP serving
// layer) to point at the offending record instead of parsing an error
// string.
type IngestError struct {
	// Index is the record's position in the rejected batch.
	Index int
	// OID and T identify the record.
	OID ObjectID
	T   Time
	// Err is the underlying validation failure.
	Err error
}

// Error implements error.
func (e *IngestError) Error() string {
	return fmt.Sprintf("tkplq: ingest record %d (oid %d, t %d): %v", e.Index, e.OID, e.T, e.Err)
}

// Unwrap returns the underlying cause.
func (e *IngestError) Unwrap() error { return e.Err }

// Ingest validates and appends a batch of positioning records to the
// system's live table. The whole batch is validated before anything is
// logged or appended, so a bad record leaves the table untouched; the
// returned error is a *IngestError identifying the first offending record.
// The checks run in this order, each over the whole batch before the next:
//
//  1. structure: the first record, in batch order, with a negative timestamp
//     or with the (object, timestamp) pair of an earlier record — which would
//     make the object's positioning sequence ambiguous — names the error;
//  2. per record, in batch order: the sample set's invariants
//     (SampleSet.Validate), then every sample's P-location, which the space
//     must have.
//
// Ingest is safe to call concurrently with queries: the table is internally
// synchronized and takes the batch in one append, and query-level
// coalescing keys on the table's record count, so queries racing an ingest
// never share a stale evaluation.
//
// With a durable store attached (SetPersister), the validated batch is
// written ahead to the store's log before it is applied, under the ingest
// serialization lock; a persistence error aborts the ingest with the table
// untouched. A batch whose write-ahead frame was durably logged is applied
// on recovery even if the caller never saw the acknowledgment — durable
// ingest is accepted-or-unacknowledged, never lost-after-ack.
func (s *System) Ingest(recs []Record) error {
	if err := firstStructuralError(recs); err != nil {
		return err
	}
	numPLocs := s.space.NumPLocations()
	for i, rec := range recs {
		if err := rec.Samples.Validate(); err != nil {
			return &IngestError{Index: i, OID: rec.OID, T: rec.T, Err: err}
		}
		for _, smp := range rec.Samples {
			if smp.Loc < 0 || int(smp.Loc) >= numPLocs {
				return &IngestError{Index: i, OID: rec.OID, T: rec.T, Err: fmt.Errorf("unknown P-location %d", smp.Loc)}
			}
		}
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.persist != nil {
		if err := s.persist.AppendBatch(recs); err != nil {
			return fmt.Errorf("tkplq: persisting ingest batch: %w", err)
		}
	}
	s.table.Append(recs...)
	// Announce the batch to live monitors and subscriptions while still
	// holding the ingest lock — the barrier of a monitor's one table read —
	// so each monitor sees the batch exactly once and in table order: in this
	// announcement or in the read that builds it, never both.
	s.engine.NotifyAppend(s.table, recs)
	return nil
}

// firstStructuralError returns the error for the first record of recs with
// a negative timestamp or with the (object, timestamp) pair of an earlier
// record, or nil. Only the records before the first negative timestamp can
// repeat a pair first, so only their keys are sorted; sorted by (timestamp,
// object, index), the records of one pair are neighbours in batch order.
func firstStructuralError(recs []Record) *IngestError {
	neg := slices.IndexFunc(recs, func(rec Record) bool { return rec.T < 0 })
	if neg < 0 {
		neg = len(recs)
	}
	type key struct {
		t   Time
		pos uint64 // the object id above the record's index (a batch holds < 2³² records)
	}
	keys := make([]key, neg)
	for i := range keys {
		keys[i] = key{recs[i].T, uint64(uint32(recs[i].OID))<<32 | uint64(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	dup, prev := neg, 0
	for i := 1; i < len(keys); i++ {
		if keys[i].t == keys[i-1].t && keys[i].pos>>32 == keys[i-1].pos>>32 {
			if at := int(uint32(keys[i].pos)); at < dup {
				dup, prev = at, int(uint32(keys[i-1].pos))
			}
		}
	}
	if dup < neg {
		rec := recs[dup]
		return &IngestError{Index: dup, OID: rec.OID, T: rec.T,
			Err: fmt.Errorf("duplicate timestamp for object (record %d of this batch reports the same instant)", prev)}
	}
	if neg < len(recs) {
		rec := recs[neg]
		return &IngestError{Index: neg, OID: rec.OID, T: rec.T, Err: errors.New("negative timestamp")}
	}
	return nil
}

// CacheStats returns a snapshot of the engine's work-sharing machinery: the
// window cache (live windows and memoized per-object results plus lifetime
// hit and miss counts) and the query-level request coalescer (queries served
// by joining an in-flight identical evaluation vs. evaluations performed).
func (s *System) CacheStats() CacheStats { return s.engine.CacheStats() }

// Subscribe opens a live feed of the query's top-k ranking over the system's
// table. The query's Window field (required, positive) slides with the data:
// every Ingest triggers an incremental re-evaluation over the window ending
// at the newest record timestamp, and an Update is delivered whenever the
// ranking or any flow changes — the first update is the current snapshot.
// Updates are bit-identical to a from-scratch System.Do top-k over the same
// window. Identical subscriptions always share one monitor (one incremental
// evaluation feeds all of them), so Query.DisableCoalescing is refused; a
// slow consumer loses oldest updates to conflation (Update.Dropped) and never
// delays evaluation. Canceling ctx closes the subscription like
// Subscription.Close; Query.Ts, Query.Te and Query.Algorithm are ignored.
func (s *System) Subscribe(ctx context.Context, q Query) (*Subscription, error) {
	return s.engine.Subscribe(ctx, core.SubscribeConfig{
		Table:   s.table,
		Barrier: &s.ingestMu,
	}, q)
}

// MonitorStats reports every live monitor and subscription feed on the
// system, in creation order.
func (s *System) MonitorStats() []MonitorStat { return s.engine.MonitorStats() }

// AllSLocations returns every S-location id of the space, handy for
// building query sets.
func (s *System) AllSLocations() []SLocID {
	out := make([]SLocID, s.space.NumSLocations())
	for i := range out {
		out[i] = SLocID(i)
	}
	return out
}

// GenerateBuilding creates a synthetic multi-floor building (the paper's
// Vita-like generator, §5.3).
func GenerateBuilding(cfg BuildingConfig) (*Building, error) { return sim.Generate(cfg) }

// DefaultBuildingConfig returns the laptop-scale synthetic building
// configuration.
func DefaultBuildingConfig() BuildingConfig { return sim.DefaultBuildingConfig() }

// RealDataBuilding creates the analog of the paper's real-data test floor
// (§5.2, Figure 6).
func RealDataBuilding() (*Building, error) { return sim.RealDataFloor() }

// SimulateMovement generates exact ground-truth trajectories (§5.3).
func SimulateMovement(b *Building, cfg MovementConfig) ([]Trajectory, error) {
	return sim.SimulateMovement(b, cfg)
}

// DefaultMovementConfig returns the paper-modeled movement defaults at
// reduced population.
func DefaultMovementConfig() MovementConfig { return sim.DefaultMovementConfig() }

// GenerateIUPT converts trajectories into an IUPT with the WkNN positioning
// model (§5.3).
func GenerateIUPT(b *Building, trajs []Trajectory, cfg PositioningConfig) (*Table, error) {
	return sim.GenerateIUPT(b, trajs, cfg)
}

// DefaultPositioningConfig returns the paper's positioning defaults
// (T = 3 s, mss = 4, µ = 5 m).
func DefaultPositioningConfig() PositioningConfig { return sim.DefaultPositioningConfig() }

// GroundTruthFlows counts true per-location visitors from exact
// trajectories (§5.1).
func GroundTruthFlows(space *Space, trajs []Trajectory, query []SLocID, ts, te Time) map[SLocID]float64 {
	return eval.GroundTruthFlows(space, trajs, query, ts, te)
}

// TopKOf ranks a flow map and returns its top k entries.
func TopKOf(flows map[SLocID]float64, k int) []Result { return eval.TopKOf(flows, k) }

// Recall measures the fraction of ground-truth top-k locations recovered.
func Recall(result, truth []Result) float64 { return eval.Recall(result, truth) }

// KendallTau measures ranking agreement with the paper's extension
// procedure for non-identical top-k sets.
func KendallTau(result, truth []Result) float64 { return eval.KendallTau(result, truth) }

// Effectiveness bundles Recall and KendallTau.
func Effectiveness(result, truth []Result) Metrics { return eval.Effectiveness(result, truth) }
