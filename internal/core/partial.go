package core

import (
	"context"
	"fmt"
	"slices"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// This file is the one evaluation pipeline (see the package comment). The
// shared pass yields one presence row per contributing object in ascending
// object order; the finisher sums the rows into flows (Eq. 2) in that order
// and ranks. One driver (Driver.Answer, query.go) streams one into the other
// per window group, from either of two row sources: a table runs the shared
// pass in-process, and a cluster puts a wire in between — a shard's DoPartial
// keeps the rows as a Partial, the router merges the shards' (MergePartials)
// and replays them (Replay). Presence values and the order of the float
// additions are thus one piece of code in every deployment — the PR-1
// determinism contract, with no second path to keep in step.

// Partial is one shard's contribution to a distributed query: for every
// local object with records in the window that survived PSL∩Q pruning, the
// object's presence in each of the query's S-locations.
type Partial struct {
	// OIDs lists the contributing objects in strictly ascending order.
	OIDs []iupt.ObjectID
	// Cols is the number of queried S-locations: len(Query.SLocs) of the
	// query the partial was evaluated for.
	Cols int
	// Rows holds one row of Cols presences per object of OIDs, row-major:
	// Rows[i*Cols+j] is OIDs[i]'s presence in the j-th queried S-location
	// (the column order of that query's SLocs).
	Rows []float64
	// Stats describes the shard-local work (ObjectsTotal counts every local
	// object in the window, including pruned ones that contribute no row).
	Stats Stats
}

// sharedPass is the only implementation of "reduce + summarize each object
// once" (Algorithm 3's object loop): it fetches the window and computes the
// summaries across the worker pool, into an oracle whose summaries[i] is the
// window's i-th object's, nil when PSL∩Q pruned it (rows streams them). q
// supplies the window, the columns and, for KindPresence only, the one object
// to restrict to; e must already be the query's view. The caller releases the
// oracle's entry once its rows are emitted.
func (e *Engine) sharedPass(ctx context.Context, table *iupt.Table, q Query) (*presenceOracle, error) {
	en, err := e.window(ctx, table, q.Ts, q.Te)
	if err != nil {
		return nil, err
	}
	lo, hi := 0, len(en.win.OIDs)
	var mask []bool
	if q.Kind == KindPresence {
		// Only the one object, and no PSL∩Q pruning: its summary is computed
		// unconditionally (a non-intersecting PSL yields an exact 0.0 either
		// way). The view is its sub-slice of the window and of the memo alike
		// (empty when it has no records), so position 0 is its memo slot.
		var found bool
		lo, found = slices.BinarySearch(en.win.OIDs, q.OID)
		hi = lo
		if found {
			hi++
		}
	} else {
		mask = e.reachMask(q.SLocs)
	}
	oracle := newOracle(e, en, lo, hi, mask)
	if err := oracle.ensureAll(ctx, true); err != nil {
		en.release()
		return nil, err
	}
	return oracle, nil
}

// rows hands emit, in ascending position — ascending object id — one row per
// object of a shared pass that survived PSL∩Q pruning: row[j] is its presence
// in slocs[j]. A pruned object emits nothing, which for every consumer equals
// a row of exact 0.0s. The row buffer is reused (DoPartial, the consumer that
// keeps rows, copies them), so a standalone query holds O(|Q|) floats however
// many objects the window has. It returns the pass's Stats.
func (e *Engine) rows(o *presenceOracle, slocs []indoor.SLocID, emit func(oid iupt.ObjectID, row []float64)) Stats {
	row := make([]float64, len(slocs))
	for i, sum := range o.summaries {
		if sum == nil {
			continue // pruned: an exact 0.0 in every column
		}
		e.presenceRow(row, sum, slocs)
		emit(o.win.OIDs[i], row)
	}
	return o.finishStats()
}

// presenceRow fills row[j] with the summarized object's presence in slocs[j].
// It is the only "summary → presence row" step — the shared pass's and the
// live feed's — and Presence the one place that knows PresenceMode and
// LogScale.
func (e *Engine) presenceRow(row []float64, sum *ObjectSummary, slocs []indoor.SLocID) {
	for j, s := range slocs {
		row[j] = sum.Presence(e.space.CellOfSLoc(s), e.opts.Presence)
	}
}

// DoPartial evaluates the shard-local contribution to q: the shared pass's
// per-object presence rows over q.SLocs for every local object in [Ts, Te],
// retained. It accepts every query kind — KindFlow is a one-column partial,
// KindPresence restricts the evaluation to q.OID (an empty partial when the
// object has no local records) — and ignores q.Algorithm: since all three
// TkPLQ algorithms return bit-identical flows, the merged answer matches a
// standalone run of any of them. Per-query overrides (Workers, DisableCache)
// apply as in Do; coalescing of identical fan-outs is the router's driver's
// job, so DoPartial never opens a flight itself.
func (e *Engine) DoPartial(ctx context.Context, table *iupt.Table, q Query) (*Partial, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if table == nil {
		return nil, fmt.Errorf("core: nil table")
	}
	if _, err := e.validateQuery(q); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v := e.view(q)
	o, err := v.sharedPass(ctx, table, q)
	if err != nil {
		return nil, err
	}
	defer o.en.release() // the rows are copied out before it runs

	n, cols := len(o.win.OIDs), len(q.SLocs) // n bounds the rows: pruned objects have none
	p := &Partial{OIDs: make([]iupt.ObjectID, 0, n), Cols: cols, Rows: make([]float64, 0, n*cols)}
	p.Stats = v.rows(o, q.SLocs, func(oid iupt.ObjectID, row []float64) {
		p.OIDs = append(p.OIDs, oid)
		p.Rows = append(p.Rows, row...)
	})
	return p, nil
}

// MergePartials merges disjoint per-shard partials into one canonical
// ascending-object stream via a k-way merge (each input is already
// ascending). Stats are folded with the same accumulation the in-process
// shard merge uses. The partials must share one column count. An object
// appearing in more than one partial means the shards' object partitions
// overlap — a topology misconfiguration that would double-count the object's
// presence — and is a hard error.
func MergePartials(parts []*Partial) (*Partial, error) {
	total, merged := 0, &Partial{}
	for i, p := range parts {
		if err := p.check(); err != nil {
			return nil, err
		}
		if i > 0 && p.Cols != merged.Cols {
			return nil, fmt.Errorf("core: partials of %d and %d columns", merged.Cols, p.Cols)
		}
		merged.Cols, total = p.Cols, total+len(p.OIDs)
		merged.Stats.add(&p.Stats) // sums ObjectsTotal/Computed etc., maxes Workers
	}
	merged.OIDs, merged.Rows = make([]iupt.ObjectID, 0, total), make([]float64, 0, total*merged.Cols)
	heads := make([]int, len(parts))
	for {
		best := -1
		for i, p := range parts {
			if heads[i] >= len(p.OIDs) {
				continue
			}
			if best < 0 || p.OIDs[heads[i]] < parts[best].OIDs[heads[best]] {
				best = i
			}
		}
		if best < 0 {
			return merged, nil
		}
		p := parts[best]
		oid := p.OIDs[heads[best]]
		if n := len(merged.OIDs); n > 0 && merged.OIDs[n-1] >= oid {
			return nil, fmt.Errorf("core: object %d contributed by more than one partial (overlapping shard partitions?)", oid)
		}
		merged.OIDs = append(merged.OIDs, oid)
		merged.Rows = append(merged.Rows, p.row(heads[best])...)
		heads[best]++
	}
}

// check refuses a nil partial and one whose rows do not fill Cols columns per
// object: a partial can arrive from outside the process.
func (p *Partial) check() error {
	if p == nil {
		return fmt.Errorf("core: nil partial")
	}
	if len(p.Rows) != len(p.OIDs)*p.Cols {
		return fmt.Errorf("core: partial has %d oids but %d cells over %d columns", len(p.OIDs), len(p.Rows), p.Cols)
	}
	return nil
}

// row returns the i-th object's row.
func (p *Partial) row(i int) []float64 { return p.Rows[i*p.Cols : (i+1)*p.Cols] }

// finisher is the only implementation of "accumulate flows in ascending-
// object order, rank". It answers its member queries from a stream of
// per-object presence rows: per member and location, one += per contributing
// object in ascending object id, whichever side of a wire the rows came from.
type finisher struct {
	drv     *Driver
	members []finishMember
}

// finishMember is one query being answered from the finisher's rows.
type finishMember struct {
	qi    int // index into the caller's qs and out
	q     Query
	cols  []int     // cols[j] is the row column carrying q.SLocs[j]
	flows []float64 // flows[j] is q.SLocs[j]'s running sum
}

// newFinisher prepares to answer the validated queries qs[qi], qi in idxs,
// from rows whose columns are the S-locations in columns. Their order is the
// evaluator's — q.SLocs as the caller listed them for a lone query, the
// ascending union for a batch group — so the lookup assumes none.
func (d *Driver) newFinisher(qs []Query, idxs []int, columns []indoor.SLocID) (finisher, error) {
	col := make(map[indoor.SLocID]int, len(columns))
	for c, s := range columns {
		col[s] = c
	}
	f := finisher{drv: d, members: make([]finishMember, len(idxs))}
	for i, qi := range idxs {
		q := qs[qi]
		m := finishMember{qi: qi, q: q, cols: make([]int, len(q.SLocs)), flows: make([]float64, len(q.SLocs))}
		for j, s := range q.SLocs {
			c, ok := col[s]
			if !ok {
				return finisher{}, fmt.Errorf("core: S-location %d missing from the evaluated columns", s)
			}
			m.cols[j] = c
		}
		f.members[i] = m
	}
	return f, nil
}

// add credits one object's row to every member. Rows must arrive in strictly
// ascending object order (the shared pass and MergePartials guarantee it);
// row is not retained.
func (f finisher) add(oid iupt.ObjectID, row []float64) {
	for i := range f.members {
		m := &f.members[i]
		if m.q.Kind == KindPresence && m.q.OID != oid {
			continue // a presence is the flow of its one object: 0.0 + x == x
		}
		for j, c := range m.cols {
			m.flows[j] += row[c]
		}
	}
}

// finish turns every member's sums into its response, out[qi]. stats
// describes the pass that produced the rows; a group larger than one reports
// its size in Stats.SharedBatch. A new ranking variant is one more case here.
func (f finisher) finish(stats Stats, out []*Response) {
	if stats.Workers == 0 {
		stats.Workers = 1 // a partial merged from no shard, or built by hand
	}
	if len(f.members) > 1 {
		stats.SharedBatch = len(f.members)
	}
	for i := range f.members {
		m := &f.members[i]
		results := make([]Result, len(m.flows))
		for j, s := range m.q.SLocs {
			results[j] = Result{SLoc: s, Flow: m.flows[j]}
		}
		resp := &Response{Stats: stats}
		// rankTopK truncates only when k < len, so the validated K ranks
		// exactly like its clamp to len(q.SLocs).
		switch m.q.Kind {
		case KindTopK:
			resp.Results = rankTopK(results, m.q.K)
		case KindDensity:
			resp.Results = f.drv.densityRank(results, m.q.K)
		default: // KindFlow, KindPresence: the one scalar
			resp.Results, resp.Flow = results, m.flows[0]
		}
		out[m.qi] = resp
	}
}

// FinishPartial completes a distributed query from the merged partial, whose
// columns are q.SLocs in the caller's order (the order the shards evaluated):
// Driver.Answer over the partial replayed. The response is bit-identical to Do
// over the union table.
func (d *Driver) FinishPartial(q Query, merged *Partial) (*Response, error) {
	q.DisableCoalescing = true // a replay has no version: it is nobody else's flight
	return first(d.Answer(context.Background(), Replay(merged), []Query{q}))
}

// Replay is the RowSource that re-emits an already-merged partial's rows: the
// tail of a router's source, after the fan-out and MergePartials. The partial
// arrives from outside the process, so its shape is checked against the pass.
func Replay(merged *Partial) RowSource { return replay{merged} }

type replay struct{ p *Partial }

func (replay) Version() int { return 0 }

func (r replay) Rows(_ context.Context, pass Query, emit func(iupt.ObjectID, []float64)) (Stats, error) {
	if err := r.p.check(); err != nil {
		return Stats{}, err
	}
	if len(r.p.OIDs) > 0 && r.p.Cols != len(pass.SLocs) {
		return Stats{}, fmt.Errorf("core: partial rows have %d columns, want %d", r.p.Cols, len(pass.SLocs))
	}
	for i, oid := range r.p.OIDs {
		emit(oid, r.p.row(i))
	}
	return r.p.Stats, nil
}
