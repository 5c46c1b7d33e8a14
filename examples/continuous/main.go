// Continuous: the online variant of the top-k popular location query that
// the paper's §7 names as future work — positioning records stream in, and
// a dashboard wants to know "which locations are hottest right now?" over
// a sliding window, without re-asking.
//
// This example replays a simulated morning through System.Subscribe: records
// are ingested in time order and the live feed pushes a fresh top-3 whenever
// the ranking over the trailing 15 minutes changes.
//
// Run with:
//
//	go run ./examples/continuous
package main

import (
	"context"
	"fmt"
	"log"

	"tkplq"
)

func main() {
	building, err := tkplq.RealDataBuilding()
	if err != nil {
		log.Fatal(err)
	}
	mcfg := tkplq.MovementConfig{
		Objects:     25,
		Duration:    3600,
		MaxSpeed:    1.0,
		MinDwell:    120,
		MaxDwell:    600,
		MinLifespan: 1800,
		MaxLifespan: 3600,
		Seed:        8,
	}
	people, err := tkplq.SimulateMovement(building, mcfg)
	if err != nil {
		log.Fatal(err)
	}
	pcfg := tkplq.PositioningConfig{MaxPeriod: 3, MSS: 4, ErrorRadius: 2.1, Gamma: 0.2, Seed: 9}
	feed, err := tkplq.GenerateIUPT(building, people, pcfg)
	if err != nil {
		log.Fatal(err)
	}

	// The system starts empty; the generated table above is only the record
	// source we replay from.
	sys, err := tkplq.NewSystem(building.Space, tkplq.NewTable(), tkplq.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Watch all 14 locations with a 15-minute sliding window. Identical
	// subscriptions would share this one incremental monitor.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := sys.Subscribe(ctx, tkplq.Query{
		Kind:      tkplq.KindTopK,
		Algorithm: tkplq.BestFirst,
		K:         3,
		Window:    15 * 60,
		SLocs:     sys.AllSLocations(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()

	// Replay the morning in 10-minute batches. Each ingest perturbs only the
	// touched objects; the feed pushes whenever the top-3 actually changes,
	// conflating to the freshest ranking if we read slowly.
	recs := feed.SortedRecords()
	fmt.Printf("streaming %d records; top-3 over a 15-minute window:\n\n", len(recs))
	next := 0
	var last tkplq.Update
	for poll := tkplq.Time(600); poll <= 3600; poll += 600 {
		first := next
		for next < len(recs) && recs[next].T <= poll {
			next++
		}
		if err := sys.Ingest(recs[first:next]); err != nil {
			log.Fatal(err)
		}
		// Drain pushes until the feed has caught up with everything ingested.
		for last.Records < next {
			u, ok := <-sub.Updates()
			if !ok {
				log.Fatal("subscription closed unexpectedly")
			}
			last = u
		}
		fmt.Printf("t=%2dmin  ", last.Te/60)
		for i, r := range last.Results {
			if i > 0 {
				fmt.Print("  |  ")
			}
			fmt.Printf("%d. %-3s %5.1f", i+1, building.Space.SLocation(r.SLoc).Name, r.Flow)
		}
		fmt.Printf("   (%d objects in window)\n", last.Stats.ObjectsTotal)
	}
}
