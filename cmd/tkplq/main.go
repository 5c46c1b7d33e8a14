// Command tkplq runs Top-k Popular Location Queries against a generated
// dataset and prints the ranked result with work statistics.
//
// The indoor space is regenerated deterministically from the dataset flags
// (spaces are cheap; the IUPT is the heavy artifact and can be loaded from a
// file produced by gendata, or generated on the fly). Queries run through
// the context-aware System.Do API, so Ctrl-C aborts a long evaluation
// mid-flight instead of waiting it out.
//
// Usage:
//
//	tkplq [-dataset syn|rd] [-iupt FILE] [-format csv|bin]
//	      [-objects N] [-duration SECONDS] [-seed N]
//	      [-k N] [-q FRACTION] [-ts N] [-te N] [-algo naive|nl|bf]
//	      [-engine dp|enum] [-workers N] [-compare] [-batch]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tkplq"
	"tkplq/internal/sim"
)

// errFlagParse marks a flag-parse failure the FlagSet has already reported
// on stderr, so main must not print it a second time.
var errFlagParse = errors.New("flag parse error")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch err := run(ctx, os.Args[1:]); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errFlagParse):
		os.Exit(2)
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "tkplq: interrupted")
		os.Exit(130)
	default:
		fmt.Fprintln(os.Stderr, "tkplq:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("tkplq", flag.ContinueOnError)
	var (
		dataset  = fs.String("dataset", "syn", "dataset kind: syn or rd")
		iuptFile = fs.String("iupt", "", "IUPT file from gendata (default: generate)")
		format   = fs.String("format", "csv", "IUPT file format: csv or bin")
		objects  = fs.Int("objects", 50, "number of objects when generating")
		duration = fs.Int64("duration", 7200, "simulated span when generating")
		seed     = fs.Int64("seed", 42, "random seed (must match gendata for -iupt files)")
		k        = fs.Int("k", 5, "number of results")
		qFrac    = fs.Float64("q", 0.5, "fraction of S-locations in the query set")
		tsFlag   = fs.Int64("ts", 0, "query interval start (seconds)")
		teFlag   = fs.Int64("te", 0, "query interval end (0 = full span)")
		algoFlag = fs.String("algo", "bf", "search algorithm: naive, nl or bf")
		engine   = fs.String("engine", "dp", "presence engine: dp or enum")
		workers  = fs.Int("workers", 0, "engine worker pool (0 = GOMAXPROCS, 1 = single-threaded)")
		compare  = fs.Bool("compare", false, "run all three algorithms and compare work")
		batch    = fs.Bool("batch", false, "with -compare: evaluate the three algorithms as one shared-work DoBatch")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errFlagParse // the FlagSet already printed the message + usage
	}

	b, err := sim.BuildingByName(*dataset)
	if err != nil {
		return err
	}

	recs, err := sim.CLIRecords(b, *iuptFile, *format, *objects, tkplq.Time(*duration), *seed)
	if err != nil {
		return err
	}
	table := tkplq.NewTable()
	table.Append(recs...)

	opts := tkplq.Options{Workers: *workers}
	switch *engine {
	case "dp":
		opts.Engine = tkplq.EngineDP
	case "enum":
		opts.Engine = tkplq.EngineEnum
	default:
		return fmt.Errorf("unknown engine %q", *engine)
	}
	sys, err := tkplq.NewSystem(b.Space, table, opts)
	if err != nil {
		return err
	}

	// Query set: a deterministic random fraction of the S-locations.
	rng := rand.New(rand.NewSource(*seed + 7))
	total := b.Space.NumSLocations()
	qSize := int(float64(total)**qFrac + 0.5)
	if qSize < 1 {
		qSize = 1
	}
	perm := rng.Perm(total)[:qSize]
	q := make([]tkplq.SLocID, qSize)
	for i, p := range perm {
		q[i] = tkplq.SLocID(p)
	}

	ts := tkplq.Time(*tsFlag)
	te := tkplq.Time(*teFlag)
	if te == 0 {
		_, hi, ok := table.TimeSpan()
		if !ok {
			return fmt.Errorf("empty IUPT")
		}
		te = hi
	}

	algos := map[string]tkplq.Algorithm{
		"naive": tkplq.Naive, "nl": tkplq.NestedLoop, "bf": tkplq.BestFirst,
	}
	report := func(name string, resp *tkplq.Response, elapsed time.Duration) {
		fmt.Printf("-- %s: top-%d over |Q|=%d, [%d, %d] (%.1f ms) --\n",
			name, *k, len(q), ts, te, float64(elapsed.Microseconds())/1000)
		for i, r := range resp.Results {
			fmt.Printf("%2d. %-24s flow %.4f\n", i+1, b.Space.SLocation(r.SLoc).Name, r.Flow)
		}
		stats := resp.Stats
		fmt.Printf("objects: %d total, %d computed (pruning %.1f%%); heap pops %d; breaks %d\n",
			stats.ObjectsTotal, stats.ObjectsComputed, stats.PruningRatio()*100,
			stats.HeapPops, stats.SequenceBreaks)
		fmt.Printf("workers: %d; cache: %d hits, %d misses", stats.Workers, stats.CacheHits, stats.CacheMisses)
		if stats.SharedBatch > 0 {
			fmt.Printf("; shared batch of %d", stats.SharedBatch)
		}
		fmt.Printf("\n\n")
	}
	runOne := func(name string, algo tkplq.Algorithm) error {
		start := time.Now()
		resp, err := sys.Do(ctx, tkplq.Query{Kind: tkplq.KindTopK, Algorithm: algo, K: *k, Ts: ts, Te: te, SLocs: q})
		if err != nil {
			return err
		}
		report(name, resp, time.Since(start))
		return nil
	}

	if *compare {
		names := []string{"naive", "nl", "bf"}
		if *batch {
			// One shared-work batch: the per-object reduction runs once for
			// all three algorithm variants (they share the window).
			queries := make([]tkplq.Query, len(names))
			for i, name := range names {
				queries[i] = tkplq.Query{Kind: tkplq.KindTopK, Algorithm: algos[name], K: *k, Ts: ts, Te: te, SLocs: q}
			}
			start := time.Now()
			resps, err := sys.DoBatch(ctx, queries)
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			for i, name := range names {
				report(name+" (batched)", resps[i], elapsed)
			}
			return nil
		}
		for _, name := range names {
			if err := runOne(name, algos[name]); err != nil {
				return err
			}
		}
		return nil
	}
	algo, ok := algos[*algoFlag]
	if !ok {
		return fmt.Errorf("unknown algorithm %q", *algoFlag)
	}
	return runOne(*algoFlag, algo)
}
