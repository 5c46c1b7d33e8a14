package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// waitForWaiters polls until n callers are blocked on the engine's coalescer.
func waitForWaiters(t *testing.T, c *coalescer, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.waiterCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d coalescer waiters (have %d)", n, c.waiterCount())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// resultsIdentical reports bit-identical rankings (ids and float64 flow bits).
func resultsIdentical(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].SLoc != b[i].SLoc ||
			math.Float64bits(a[i].Flow) != math.Float64bits(b[i].Flow) {
			return false
		}
	}
	return true
}

// TestCoalesceConcurrentIdentical: N concurrent identical TopK queries share
// exactly one evaluation, all callers receive bit-identical rankings equal to
// the sequential path, and exactly one response reports Coalesced == 0.
//
// The holdEval hook parks the leader between registering its flight and
// evaluating, so every other caller deterministically joins that flight —
// no timing luck involved; the race detector checks the sharing.
func TestCoalesceConcurrentIdentical(t *testing.T) {
	const callers = 64

	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(7))
	tb := randTable(rng, fig, 10, 40)
	eng := NewEngine(fig.Space, Options{})

	// Sequential reference from an identically-configured engine.
	refEng := NewEngine(fig.Space, Options{})
	want, _, err := refEng.TopK(tb, fig.SLocs[:], 3, 0, 40, AlgoBestFirst)
	if err != nil {
		t.Fatal(err)
	}

	hold := make(chan struct{})
	eng.coal.holdEval = hold

	var wg sync.WaitGroup
	results := make([][]Result, callers)
	stats := make([]Stats, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], stats[i], errs[i] = eng.TopK(tb, fig.SLocs[:], 3, 0, 40, AlgoBestFirst)
		}(i)
	}
	// One caller leads (registers the flight, blocks on hold); the other 63
	// must be waiting on the flight before we release the leader.
	waitForWaiters(t, eng.coal, callers-1)
	close(hold)
	wg.Wait()

	var coalesced int64
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !resultsIdentical(results[i], want) {
			t.Errorf("caller %d: ranking %v differs from sequential %v", i, results[i], want)
		}
		coalesced += stats[i].Coalesced
	}
	if coalesced != callers-1 {
		t.Errorf("sum of Stats.Coalesced = %d, want %d", coalesced, callers-1)
	}
	cs := eng.CacheStats()
	if cs.Coalesced != callers-1 || cs.Flights != 1 {
		t.Errorf("engine counters = %d coalesced / %d flights, want %d/1",
			cs.Coalesced, cs.Flights, callers-1)
	}
	// Exactly one evaluation ran: with a fresh cache, only the leader can
	// have produced cache misses.
	if cs.Misses == 0 {
		t.Error("no cache misses recorded — expected the single leader evaluation to populate the cache")
	}
}

// TestCoalesceDistinctWindowsDoNotShare: queries over different windows (or
// different k / algorithm) must not coalesce, even when issued concurrently.
func TestCoalesceDistinctWindowsDoNotShare(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(11))
	tb := randTable(rng, fig, 10, 40)
	eng := NewEngine(fig.Space, Options{})

	refEng := NewEngine(fig.Space, Options{})
	wantA, _, err := refEng.TopK(tb, fig.SLocs[:], 3, 0, 40, AlgoBestFirst)
	if err != nil {
		t.Fatal(err)
	}
	wantB, _, err := refEng.TopK(tb, fig.SLocs[:], 3, 0, 20, AlgoBestFirst)
	if err != nil {
		t.Fatal(err)
	}

	// Park both leaders: window [0,40] and window [0,20] open separate
	// flights that are in flight at the same time.
	hold := make(chan struct{})
	eng.coal.holdEval = hold

	var wg sync.WaitGroup
	var resA, resB []Result
	var stA, stB Stats
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		resA, stA, errA = eng.TopK(tb, fig.SLocs[:], 3, 0, 40, AlgoBestFirst)
	}()
	go func() {
		defer wg.Done()
		resB, stB, errB = eng.TopK(tb, fig.SLocs[:], 3, 0, 20, AlgoBestFirst)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		eng.coal.mu.Lock()
		open := len(eng.coal.flights)
		eng.coal.mu.Unlock()
		if open == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for 2 distinct flights (have %d)", open)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(hold)
	wg.Wait()

	if errA != nil || errB != nil {
		t.Fatalf("errors: %v / %v", errA, errB)
	}
	if stA.Coalesced != 0 || stB.Coalesced != 0 {
		t.Errorf("distinct windows coalesced: Stats.Coalesced = %d / %d, want 0/0", stA.Coalesced, stB.Coalesced)
	}
	if !resultsIdentical(resA, wantA) {
		t.Errorf("window [0,40] ranking %v differs from sequential %v", resA, wantA)
	}
	if !resultsIdentical(resB, wantB) {
		t.Errorf("window [0,20] ranking %v differs from sequential %v", resB, wantB)
	}
	cs := eng.CacheStats()
	if cs.Coalesced != 0 || cs.Flights != 2 {
		t.Errorf("engine counters = %d coalesced / %d flights, want 0/2", cs.Coalesced, cs.Flights)
	}
}

// TestCoalesceStrategiesDoNotShare: the three algorithms report different
// Stats, so the same top-k under each of them is three flights, not one.
func TestCoalesceStrategiesDoNotShare(t *testing.T) {
	fig := indoor.Figure1Space()
	tb := randTable(rand.New(rand.NewSource(12)), fig, 10, 40)
	eng := NewEngine(fig.Space, Options{})
	hold := make(chan struct{})
	eng.coal.holdEval = hold

	algos := []Algorithm{AlgoNaive, AlgoNestedLoop, AlgoBestFirst}
	stats := make([]Stats, len(algos))
	var wg sync.WaitGroup
	for i, algo := range algos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, stats[i], _ = eng.TopK(tb, fig.SLocs[:], 3, 0, 40, algo)
		}()
	}
	waitForFlights(t, eng.coal, len(algos))
	close(hold)
	wg.Wait()
	for i, st := range stats {
		if st.Coalesced != 0 {
			t.Errorf("%v joined another strategy's flight", algos[i])
		}
	}
}

// TestCoalesceQueryOrderInvariant: the same query *set* listed in different
// orders coalesces (rankings are order-invariant by construction).
func TestCoalesceQueryOrderInvariant(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(13))
	tb := randTable(rng, fig, 8, 30)
	eng := NewEngine(fig.Space, Options{})

	qFwd := append([]indoor.SLocID(nil), fig.SLocs[:]...)
	qRev := make([]indoor.SLocID, len(qFwd))
	for i, s := range qFwd {
		qRev[len(qRev)-1-i] = s
	}

	hold := make(chan struct{})
	eng.coal.holdEval = hold

	var wg sync.WaitGroup
	var resFwd, resRev []Result
	wg.Add(2)
	go func() {
		defer wg.Done()
		resFwd, _, _ = eng.TopK(tb, qFwd, 3, 0, 30, AlgoNestedLoop)
	}()
	go func() {
		defer wg.Done()
		resRev, _, _ = eng.TopK(tb, qRev, 3, 0, 30, AlgoNestedLoop)
	}()
	waitForWaiters(t, eng.coal, 1)
	close(hold)
	wg.Wait()

	if !resultsIdentical(resFwd, resRev) {
		t.Errorf("order-permuted query sets returned different rankings: %v vs %v", resFwd, resRev)
	}
	if cs := eng.CacheStats(); cs.Coalesced != 1 || cs.Flights != 1 {
		t.Errorf("engine counters = %d coalesced / %d flights, want 1/1", cs.Coalesced, cs.Flights)
	}
}

// TestCoalesceIngestSplitsFlights: a query issued after the table grew must
// not join a flight keyed on the shorter table.
func TestCoalesceIngestSplitsFlights(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(17))
	tb := randTable(rng, fig, 6, 30)
	eng := NewEngine(fig.Space, Options{})

	hold := make(chan struct{})
	eng.coal.holdEval = hold

	var wg sync.WaitGroup
	var stFirst Stats
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, stFirst, _ = eng.TopK(tb, fig.SLocs[:], 3, 0, 30, AlgoNestedLoop)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		eng.coal.mu.Lock()
		open := len(eng.coal.flights)
		eng.coal.mu.Unlock()
		if open == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the first flight")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Grow the table while the first flight is parked: the second identical
	// query sees a different record count and must open its own flight.
	tb.Append(iupt.Record{OID: 99, T: 5, Samples: iupt.SampleSet{{Loc: fig.PLocs[0], Prob: 1}}})

	var wg2 sync.WaitGroup
	var stSecond Stats
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		_, stSecond, _ = eng.TopK(tb, fig.SLocs[:], 3, 0, 30, AlgoNestedLoop)
	}()
	for {
		eng.coal.mu.Lock()
		open := len(eng.coal.flights)
		eng.coal.mu.Unlock()
		if open == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the post-ingest flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(hold)
	wg.Wait()
	wg2.Wait()

	// The loop above proved the second query opened its own flight (2 open
	// flights) instead of joining the pre-ingest one; neither was coalesced.
	if stFirst.Coalesced != 0 || stSecond.Coalesced != 0 {
		t.Errorf("flights across an ingest coalesced: %d / %d, want 0/0", stFirst.Coalesced, stSecond.Coalesced)
	}
	if cs := eng.CacheStats(); cs.Flights != 2 {
		t.Errorf("flights = %d, want 2 (one per table length)", cs.Flights)
	}
}

// TestCoalesceDisabled: Query.DisableCoalescing takes a query out of the
// whole mechanism — every such query evaluates, and all coalescer counters
// stay zero.
func TestCoalesceDisabled(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(19))
	tb := randTable(rng, fig, 6, 30)
	eng := NewEngine(fig.Space, Options{})
	q := Query{Kind: KindTopK, Algorithm: AlgoNestedLoop, K: 3, Te: 30, SLocs: fig.SLocs[:], DisableCoalescing: true}

	var wg sync.WaitGroup
	stats := make([]Stats, 8)
	for i := range stats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, stats[i], _ = ranked(eng.Do(context.Background(), tb, q))
		}(i)
	}
	wg.Wait()
	for i, st := range stats {
		if st.Coalesced != 0 {
			t.Errorf("caller %d: Coalesced = %d with coalescing disabled", i, st.Coalesced)
		}
	}
	if cs := eng.CacheStats(); cs.Coalesced != 0 || cs.Flights != 0 {
		t.Errorf("coalescer counters %d/%d with coalescing disabled, want 0/0", cs.Coalesced, cs.Flights)
	}
}

// TestCoalescePanickingLeader: a leader whose evaluation panics must not
// strand its followers — the flight is unregistered, waiting callers
// re-evaluate for themselves, and future identical queries run normally.
func TestCoalescePanickingLeader(t *testing.T) {
	c := newCoalescer()
	key := flightKey{kind: KindTopK, k: 1}

	boom := func(context.Context) ([]Result, Stats, error) { panic("engine blew up") }
	good := func(context.Context) ([]Result, Stats, error) {
		return []Result{{SLoc: 0, Flow: 1}}, Stats{}, nil
	}

	hold := make(chan struct{})
	c.holdEval = hold

	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		c.do(context.Background(), key, boom)
	}()
	// Make sure boom is the leader: its flight must be registered before the
	// follower is launched.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		open := len(c.flights)
		c.mu.Unlock()
		if open == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the panicking leader's flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
	followerDone := make(chan []Result, 1)
	go func() {
		res, _, err := c.do(context.Background(), key, good)
		if err != nil {
			t.Error(err)
		}
		followerDone <- res
	}()
	waitForWaiters(t, c, 1)
	close(hold)

	if r := <-leaderDone; r == nil {
		t.Fatal("leader's panic was swallowed")
	}
	res := <-followerDone
	if len(res) != 1 || res[0].Flow != 1 {
		t.Fatalf("follower fallback result = %v, want its own evaluation", res)
	}

	// No dead flight left behind: a fresh identical query completes.
	c.holdEval = nil
	res, st, err := c.do(context.Background(), key, good)
	if err != nil || len(res) != 1 || st.Coalesced != 0 {
		t.Fatalf("post-panic query = (%v, %+v, %v), want a clean solo evaluation", res, st, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.flights) != 0 || c.coalesced != 0 {
		t.Errorf("coalescer state after panic: %d flights, %d coalesced, want 0/0", len(c.flights), c.coalesced)
	}
}

// TestCoalesceFlowAndDensity: Flow and TopKDensity go through the coalescer
// too, under kind-separated keys (a flow over [0,30] must not join a TopK
// over [0,30]).
func TestCoalesceFlowAndDensity(t *testing.T) {
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(23))
	tb := randTable(rng, fig, 8, 30)
	eng := NewEngine(fig.Space, Options{})

	refEng := NewEngine(fig.Space, Options{})
	wantFlow, _ := refEng.Flow(tb, fig.SLocs[0], 0, 30)

	hold := make(chan struct{})
	eng.coal.holdEval = hold

	const callers = 16
	var wg sync.WaitGroup
	flows := make([]float64, callers)
	flowStats := make([]Stats, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			flows[i], flowStats[i] = eng.Flow(tb, fig.SLocs[0], 0, 30)
		}(i)
	}
	waitForWaiters(t, eng.coal, callers-1)
	close(hold)
	wg.Wait()

	var coalesced int64
	for i := 0; i < callers; i++ {
		if math.Float64bits(flows[i]) != math.Float64bits(wantFlow) {
			t.Errorf("caller %d: flow %v differs from sequential %v", i, flows[i], wantFlow)
		}
		coalesced += flowStats[i].Coalesced
	}
	if coalesced != callers-1 {
		t.Errorf("sum of Flow Stats.Coalesced = %d, want %d", coalesced, callers-1)
	}

	// Density coalesces under its own kind: two concurrent identical density
	// queries share one evaluation.
	eng2 := NewEngine(fig.Space, Options{})
	hold2 := make(chan struct{})
	eng2.coal.holdEval = hold2
	var wg2 sync.WaitGroup
	dres := make([][]Result, 2)
	dstats := make([]Stats, 2)
	for i := 0; i < 2; i++ {
		wg2.Add(1)
		go func(i int) {
			defer wg2.Done()
			dres[i], dstats[i], _ = eng2.TopKDensity(tb, fig.SLocs[:], 3, 0, 30)
		}(i)
	}
	waitForWaiters(t, eng2.coal, 1)
	close(hold2)
	wg2.Wait()
	if !resultsIdentical(dres[0], dres[1]) {
		t.Errorf("coalesced density rankings differ: %v vs %v", dres[0], dres[1])
	}
	if dstats[0].Coalesced+dstats[1].Coalesced != 1 {
		t.Errorf("density Coalesced sum = %d, want 1", dstats[0].Coalesced+dstats[1].Coalesced)
	}
	// One density evaluation = one flight: the internal nested-loop pass must
	// not open (and count) a second nested flight.
	if cs := eng2.CacheStats(); cs.Flights != 1 {
		t.Errorf("density flights = %d, want 1 (no nested flight)", cs.Flights)
	}
}
