// Command experiments reproduces the paper's evaluation tables and figures
// on simulated datasets.
//
// Usage:
//
//	experiments [-scale small|medium|paper] [-exp T4,F8,...] [-queries N]
//	            [-mc-rounds N] [-seed N] [-workers N] [-list]
//
// Without -exp, every experiment runs in paper order. See DESIGN.md §5 for
// the experiment index.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tkplq/internal/experiments"
)

func main() {
	var (
		scaleFlag   = flag.String("scale", "small", "dataset scale: small, medium or paper")
		expFlag     = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		queriesFlag = flag.Int("queries", 0, "random queries per data point (0 = scale default)")
		mcFlag      = flag.Int("mc-rounds", 0, "Monte-Carlo rounds (0 = scale default)")
		seedFlag    = flag.Int64("seed", 1, "random seed")
		workersFlag = flag.Int("workers", 0, "engine worker pool (0 = GOMAXPROCS, 1 = single-threaded)")
		listFlag    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *listFlag {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the run context, which aborts the measured
	// evaluation mid-query via the engine's context plumbing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := &experiments.Config{
		Ctx:      ctx,
		Scale:    scale,
		Queries:  *queriesFlag,
		MCRounds: *mcFlag,
		Seed:     *seedFlag,
		Workers:  *workersFlag,
	}

	var selected []experiments.Experiment
	if *expFlag == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			exp, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				os.Exit(2)
			}
			selected = append(selected, exp)
		}
	}

	fmt.Printf("# tkplq experiments — scale=%s seed=%d\n\n", scale, *seedFlag)
	for _, exp := range selected {
		start := time.Now()
		tables, err := exp.Run(cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "interrupted")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", exp.ID, err)
			os.Exit(1)
		}
		for _, tbl := range tables {
			if err := tbl.Render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Printf("(%s completed in %.1fs)\n\n", exp.ID, time.Since(start).Seconds())
	}
}
