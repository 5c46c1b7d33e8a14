package tkplq_test

// Benchmarks for the window cache: the same fully-sealed window evaluated
// cold (cache bypassed, the partitioned store's rematerialize + reduce +
// summarize path every time) versus cached (the repeated window and every
// per-object result served from the cache). bench/baseline.json records both;
// the gap is the cache's value, the benchdiff gate keeps it from silently
// eroding.

import (
	"context"
	"testing"

	"tkplq"
)

func BenchmarkSealedWindowQuery(b *testing.B) {
	// A denser world than the correctness tests use: the cache's win is in
	// skipping per-record rematerialize + reduce work, so the workload needs
	// enough sealed records for that to dominate the fixed per-query cost.
	bld, err := tkplq.GenerateBuilding(tkplq.DefaultBuildingConfig())
	if err != nil {
		b.Fatal(err)
	}
	trajs, err := tkplq.SimulateMovement(bld, tkplq.MovementConfig{
		Objects: 24, Duration: 600, MaxSpeed: 1.0,
		MinDwell: 60, MaxDwell: 240,
		MinLifespan: 300, MaxLifespan: 600,
		Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	seedTable, err := tkplq.GenerateIUPT(bld, trajs, tkplq.PositioningConfig{
		MaxPeriod: 1, MSS: 8, ErrorRadius: 10, Gamma: 0.2, Seed: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	store, recovered, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	sys, err := tkplq.NewSystem(bld.Space, recovered, tkplq.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sys.SetPersister(store)
	// Ingest in six chunks, sealing after each: six partitions, empty head,
	// so [0,700] is a pure sealed window.
	recs := seedTable.SortedRecords()
	for len(recs) > 0 {
		n := min(len(recs), (len(seedTable.SortedRecords())+5)/6)
		if err := sys.Ingest(recs[:n]); err != nil {
			b.Fatal(err)
		}
		if err := sys.Snapshot(); err != nil {
			b.Fatal(err)
		}
		recs = recs[n:]
	}
	q := tkplq.Query{Kind: tkplq.KindTopK, Algorithm: tkplq.BestFirst, K: 5, Ts: 0, Te: 700, SLocs: sys.AllSLocations()}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		qc := q
		qc.DisableCache = true
		for i := 0; i < b.N; i++ {
			if _, err := sys.Do(context.Background(), qc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		if _, err := sys.Do(context.Background(), q); err != nil { // warm
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Do(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
