package tkplq_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"tkplq"
)

// paperRecords returns the paper's Table 2 positioning records over the
// Figure 1 P-locations.
func paperRecords(p [9]tkplq.PLocID) []tkplq.Record {
	return []tkplq.Record{
		{OID: 1, T: 1, Samples: tkplq.SampleSet{{Loc: p[3], Prob: 1.0}}},
		{OID: 2, T: 1, Samples: tkplq.SampleSet{{Loc: p[0], Prob: 0.5}, {Loc: p[1], Prob: 0.5}}},
		{OID: 3, T: 2, Samples: tkplq.SampleSet{{Loc: p[1], Prob: 0.6}, {Loc: p[2], Prob: 0.4}}},
		{OID: 1, T: 3, Samples: tkplq.SampleSet{{Loc: p[8], Prob: 1.0}}},
		{OID: 2, T: 3, Samples: tkplq.SampleSet{{Loc: p[1], Prob: 0.7}, {Loc: p[3], Prob: 0.3}}},
		{OID: 1, T: 4, Samples: tkplq.SampleSet{{Loc: p[7], Prob: 1.0}}},
		{OID: 2, T: 5, Samples: tkplq.SampleSet{{Loc: p[4], Prob: 0.3}, {Loc: p[5], Prob: 0.6}, {Loc: p[7], Prob: 0.1}}},
		{OID: 3, T: 5, Samples: tkplq.SampleSet{{Loc: p[1], Prob: 0.4}, {Loc: p[2], Prob: 0.6}}},
		{OID: 2, T: 6, Samples: tkplq.SampleSet{{Loc: p[4], Prob: 0.2}, {Loc: p[5], Prob: 0.3}, {Loc: p[7], Prob: 0.5}}},
		{OID: 3, T: 8, Samples: tkplq.SampleSet{{Loc: p[2], Prob: 1.0}}},
	}
}

// paperOptions configures a System to reproduce the worked examples'
// arithmetic.
func paperOptions() tkplq.Options {
	return tkplq.Options{
		Presence:         tkplq.UnnormalizedTotal,
		DisableReduction: true,
	}
}

// paperSystem builds a System over the paper's Figure 1 floor plan and
// Table 2 records, configured to reproduce the worked examples' arithmetic.
func paperSystem() (*tkplq.System, *tkplq.SLocID, *tkplq.SLocID) {
	fig := tkplq.PaperExampleSpace()
	table := tkplq.NewTable()
	for _, r := range paperRecords(fig.PLocs) {
		table.Append(r)
	}
	sys, err := tkplq.NewSystem(fig.Space, table, paperOptions())
	if err != nil {
		log.Fatal(err)
	}
	return sys, &fig.SLocs[0], &fig.SLocs[5]
}

// ExampleSystem_Do answers the paper's Example 4 query — "which location was
// most popular during [t1, t8]?" — through the context-aware Query API.
func ExampleSystem_Do() {
	sys, r1, r6 := paperSystem()

	resp, err := sys.Do(context.Background(), tkplq.Query{
		Kind:      tkplq.KindTopK,
		Algorithm: tkplq.BestFirst,
		K:         1,
		Ts:        1,
		Te:        8,
		SLocs:     []tkplq.SLocID{*r1, *r6},
	})
	if err != nil {
		log.Fatal(err)
	}
	top := resp.Results[0]
	fmt.Printf("top-1: %s (flow %.2f)\n", sys.Space().SLocation(top.SLoc).Name, top.Flow)
	// Output:
	// top-1: r6 (flow 1.97)
}

// ExampleSystem_DoBatch evaluates the paper's Example 3 flow computations —
// Θ(r6) and Θ(r1) over [t1, t8] — as one shared-work batch: both queries use
// the same window, so the per-object data reduction runs once for the pair.
func ExampleSystem_DoBatch() {
	sys, r1, r6 := paperSystem()

	resps, err := sys.DoBatch(context.Background(), []tkplq.Query{
		{Kind: tkplq.KindFlow, SLocs: []tkplq.SLocID{*r6}, Ts: 1, Te: 8},
		{Kind: tkplq.KindFlow, SLocs: []tkplq.SLocID{*r1}, Ts: 1, Te: 8},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Θ(r6)=%.2f Θ(r1)=%.2f shared=%d\n",
		resps[0].Flow, resps[1].Flow, resps[0].Stats.SharedBatch)
	// Output:
	// Θ(r6)=1.97 Θ(r1)=0.50 shared=2
}

// ExampleSystem_Ingest streams the paper's Table 2 records into a live,
// durable system: the store is attached with SetPersister, so every
// accepted batch is written ahead to disk before it lands in the table.
// Restarting — reopening the data directory — recovers the exact table,
// and the recovered system answers Example 3's flow computation
// identically. (The same holds across a kill -9: every acknowledged batch
// is already framed in the log; see TestPartitionedCrashRestartEquivalence.)
func ExampleSystem_Ingest() {
	dir, err := os.MkdirTemp("", "tkplq-durable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	fig := tkplq.PaperExampleSpace()
	store, recovered, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := tkplq.NewSystem(fig.Space, recovered, paperOptions())
	if err != nil {
		log.Fatal(err)
	}
	sys.SetPersister(store)

	// Each batch is validated, logged, applied — atomically per batch.
	for _, rec := range paperRecords(fig.PLocs) {
		if err := sys.Ingest([]tkplq.Record{rec}); err != nil {
			log.Fatal(err)
		}
	}
	// Restart: release the directory and recover it from disk.
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}

	store2, table, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer store2.Close()
	restarted, err := tkplq.NewSystem(fig.Space, table, paperOptions())
	if err != nil {
		log.Fatal(err)
	}
	resp, err := restarted.Do(context.Background(), tkplq.Query{Kind: tkplq.KindFlow, SLocs: []tkplq.SLocID{fig.SLocs[5]}, Ts: 1, Te: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered %d records, Θ(r6)=%.2f\n", table.Len(), resp.Flow)
	// Output:
	// recovered 10 records, Θ(r6)=1.97
}
