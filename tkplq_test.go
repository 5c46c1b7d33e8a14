package tkplq_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"tkplq"
)

// topK asks one TkPLQ through Do.
func topK(sys *tkplq.System, q []tkplq.SLocID, k int, ts, te tkplq.Time, algo tkplq.Algorithm) ([]tkplq.Result, tkplq.Stats, error) {
	resp, err := sys.Do(context.Background(), tkplq.Query{Kind: tkplq.KindTopK, Algorithm: algo, K: k, Ts: ts, Te: te, SLocs: q})
	if err != nil {
		return nil, tkplq.Stats{}, err
	}
	return resp.Results, resp.Stats, nil
}

// TestEndToEndSynthetic exercises the full public API: generate a building,
// simulate movement, produce an IUPT, answer TkPLQ with all algorithms, and
// score against ground truth.
func TestEndToEndSynthetic(t *testing.T) {
	b, err := tkplq.GenerateBuilding(tkplq.DefaultBuildingConfig())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := tkplq.DefaultMovementConfig()
	mcfg.Objects = 20
	mcfg.Duration = 1800
	mcfg.MinDwell, mcfg.MaxDwell = 60, 240
	mcfg.MinLifespan, mcfg.MaxLifespan = 900, 1800
	trajs, err := tkplq.SimulateMovement(b, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	table, err := tkplq.GenerateIUPT(b, trajs, tkplq.DefaultPositioningConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := tkplq.NewSystem(b.Space, table, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}

	q := sys.AllSLocations()
	const k = 5
	var ts, te tkplq.Time = 0, 1800

	truth := tkplq.TopKOf(tkplq.GroundTruthFlows(b.Space, trajs, q, ts, te), k)
	if len(truth) != k {
		t.Fatalf("ground truth top-%d has %d entries", k, len(truth))
	}

	var prev []tkplq.Result
	for _, algo := range []tkplq.Algorithm{tkplq.Naive, tkplq.NestedLoop, tkplq.BestFirst} {
		res, stats, err := topK(sys, q, k, ts, te, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(res) != k {
			t.Fatalf("%v: %d results", algo, len(res))
		}
		if stats.ObjectsTotal != 20 {
			t.Errorf("%v: ObjectsTotal = %d", algo, stats.ObjectsTotal)
		}
		if prev != nil {
			for i := range res {
				if math.Abs(res[i].Flow-prev[i].Flow) > 1e-9 {
					t.Errorf("%v: flow[%d] = %v, want %v", algo, i, res[i].Flow, prev[i].Flow)
				}
			}
		}
		prev = res

		// The uncertainty-aware result should track ground truth well on
		// this easy, fully-covered setting.
		m := tkplq.Effectiveness(res, truth)
		if m.Recall < 0.4 {
			t.Errorf("%v: recall = %v suspiciously low (result %v, truth %v)", algo, m.Recall, res, truth)
		}
		if m.Tau < -0.5 {
			t.Errorf("%v: τ = %v anti-correlated", algo, m.Tau)
		}
	}

	// Flow consistency and bounds.
	fresp, err := sys.Do(context.Background(), tkplq.Query{Kind: tkplq.KindFlow, SLocs: []tkplq.SLocID{prev[0].SLoc}, Ts: ts, Te: te})
	if err != nil {
		t.Fatal(err)
	}
	flow, stats := fresp.Flow, fresp.Stats
	if math.Abs(flow-prev[0].Flow) > 1e-9 {
		t.Errorf("Flow = %v, TopK reported %v", flow, prev[0].Flow)
	}
	if flow < 0 || flow > 20 {
		t.Errorf("flow %v out of [0, |O|]", flow)
	}
	if stats.PruningRatio() < 0 || stats.PruningRatio() > 1 {
		t.Errorf("pruning ratio %v", stats.PruningRatio())
	}

	// Presence of a known object is within [0, 1].
	presp, err := sys.Do(context.Background(), tkplq.Query{Kind: tkplq.KindPresence, SLocs: []tkplq.SLocID{prev[0].SLoc}, OID: 1, Ts: ts, Te: te})
	if err != nil {
		t.Fatal(err)
	}
	if p := presp.Flow; p < 0 || p > 1+1e-9 {
		t.Errorf("presence = %v", p)
	}
}

// TestPaperExampleThroughFacade replays the paper's Example 4 via the
// public API.
func TestPaperExampleThroughFacade(t *testing.T) {
	fig := tkplq.PaperExampleSpace()
	table := tkplq.NewTable()
	p := fig.PLocs
	recs := []tkplq.Record{
		{OID: 1, T: 1, Samples: tkplq.SampleSet{{Loc: p[3], Prob: 1.0}}},
		{OID: 1, T: 3, Samples: tkplq.SampleSet{{Loc: p[8], Prob: 1.0}}},
		{OID: 1, T: 4, Samples: tkplq.SampleSet{{Loc: p[7], Prob: 1.0}}},
		{OID: 2, T: 1, Samples: tkplq.SampleSet{{Loc: p[0], Prob: 0.5}, {Loc: p[1], Prob: 0.5}}},
		{OID: 2, T: 3, Samples: tkplq.SampleSet{{Loc: p[1], Prob: 0.7}, {Loc: p[3], Prob: 0.3}}},
		{OID: 3, T: 2, Samples: tkplq.SampleSet{{Loc: p[1], Prob: 0.6}, {Loc: p[2], Prob: 0.4}}},
	}
	for _, r := range recs {
		table.Append(r)
	}
	sys, err := tkplq.NewSystem(fig.Space, table, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := topK(sys, []tkplq.SLocID{fig.SLocs[0], fig.SLocs[5]}, 1, 1, 8, tkplq.BestFirst)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].SLoc != fig.SLocs[5] {
		t.Errorf("top-1 = %v, want r6", res[0])
	}
}

func TestNewSystemValidation(t *testing.T) {
	fig := tkplq.PaperExampleSpace()
	if _, err := tkplq.NewSystem(nil, tkplq.NewTable(), tkplq.Options{}); err == nil {
		t.Error("nil space should fail")
	}
	if _, err := tkplq.NewSystem(fig.Space, nil, tkplq.Options{}); err == nil {
		t.Error("nil table should fail")
	}
	sys, err := tkplq.NewSystem(fig.Space, tkplq.NewTable(), tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Space() != fig.Space || sys.Table() == nil {
		t.Error("accessors broken")
	}
	if got := sys.AllSLocations(); len(got) != 6 {
		t.Errorf("AllSLocations = %v", got)
	}
}

func TestRealDataBuildingFacade(t *testing.T) {
	b, err := tkplq.RealDataBuilding()
	if err != nil {
		t.Fatal(err)
	}
	if b.Space.NumSLocations() != 14 {
		t.Errorf("S-locations = %d, want 14", b.Space.NumSLocations())
	}
}

func TestGeometryHelpers(t *testing.T) {
	p := tkplq.Pt(1, 2)
	if p.X != 1 || p.Y != 2 {
		t.Error("Pt broken")
	}
	r := tkplq.R(3, 3, 0, 0)
	if r.MinX != 0 || r.MaxY != 3 {
		t.Error("R normalization broken")
	}
}

// TestIngest: valid batches append and refresh query results; an invalid
// record anywhere in the batch rejects the whole batch atomically.
func TestIngest(t *testing.T) {
	fig := tkplq.PaperExampleSpace()
	p := fig.PLocs
	sys, err := tkplq.NewSystem(fig.Space, tkplq.NewTable(), tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}

	q := []tkplq.SLocID{fig.SLocs[0], fig.SLocs[5]}
	batch := []tkplq.Record{
		{OID: 1, T: 1, Samples: tkplq.SampleSet{{Loc: p[3], Prob: 1.0}}},
		{OID: 1, T: 3, Samples: tkplq.SampleSet{{Loc: p[8], Prob: 1.0}}},
		{OID: 1, T: 4, Samples: tkplq.SampleSet{{Loc: p[7], Prob: 1.0}}},
		{OID: 2, T: 1, Samples: tkplq.SampleSet{{Loc: p[0], Prob: 0.5}, {Loc: p[1], Prob: 0.5}}},
		{OID: 2, T: 3, Samples: tkplq.SampleSet{{Loc: p[1], Prob: 0.7}, {Loc: p[3], Prob: 0.3}}},
	}
	if err := sys.Ingest(batch); err != nil {
		t.Fatal(err)
	}
	if got := sys.Table().Len(); got != len(batch) {
		t.Fatalf("table has %d records after ingest, want %d", got, len(batch))
	}
	res, _, err := topK(sys, q, 1, 1, 8, tkplq.BestFirst)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].SLoc != fig.SLocs[5] {
		t.Errorf("top-1 after ingest = %v, want r6", res[0])
	}

	// A batch with one invalid record (probabilities sum to 0.9) must leave
	// the table untouched.
	bad := []tkplq.Record{
		{OID: 3, T: 2, Samples: tkplq.SampleSet{{Loc: p[1], Prob: 0.6}, {Loc: p[2], Prob: 0.4}}},
		{OID: 4, T: 2, Samples: tkplq.SampleSet{{Loc: p[1], Prob: 0.5}, {Loc: p[2], Prob: 0.4}}},
	}
	if err := sys.Ingest(bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if got := sys.Table().Len(); got != len(batch) {
		t.Errorf("table has %d records after rejected batch, want %d", got, len(batch))
	}
	if err := sys.Ingest([]tkplq.Record{
		{OID: 5, T: -1, Samples: tkplq.SampleSet{{Loc: p[0], Prob: 1.0}}},
	}); err == nil {
		t.Error("negative timestamp accepted")
	}
}

// TestIngestRefusesUnknownPLocation: a sample at a P-location the space does
// not have is refused with an *IngestError naming its record before anything
// is logged or appended, so no query over its window can index past the
// space's P-locations and no recovery replays it.
func TestIngestRefusesUnknownPLocation(t *testing.T) {
	b, table := durableTestBuilding(t)
	store, recovered, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sys, err := tkplq.NewSystem(b.Space, recovered, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetPersister(store)
	recs := table.SortedRecords()
	if err := sys.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	frames, n := store.Stats().WAL.Frames, sys.Table().Len()

	te := recs[len(recs)-1].T + 1
	good := tkplq.Record{OID: recs[0].OID, T: te, Samples: recs[0].Samples}
	bad := tkplq.Record{OID: good.OID + 1, T: te, Samples: tkplq.SampleSet{{Loc: tkplq.PLocID(b.Space.NumPLocations() + 5), Prob: 1}}}
	err = sys.Ingest([]tkplq.Record{good, bad})
	var ie *tkplq.IngestError
	if !errors.As(err, &ie) || ie.Index != 1 || ie.OID != bad.OID || ie.T != bad.T {
		t.Fatalf("Ingest of a sample at P-location %d = %v, want an *IngestError naming record 1", bad.Samples[0].Loc, err)
	}
	if got := sys.Table().Len(); got != n {
		t.Errorf("the refused batch left %d records in the table, want %d", got, n)
	}
	if got := store.Stats().WAL.Frames; got != frames {
		t.Errorf("the refused batch left %d WAL frames, want %d", got, frames)
	}
	res, err := sys.Do(context.Background(), tkplq.Query{Algorithm: tkplq.BestFirst, K: 3, Te: te, SLocs: sys.AllSLocations()})
	if err != nil || len(res.Results) == 0 {
		t.Fatalf("a query after the refused batch answered %v, %v", res, err)
	}
}
