// Package core implements the paper's primary contribution: uncertainty-
// aware indoor flow computation and the Top-k Popular Location Query
// (TkPLQ).
//
// It provides:
//
//   - the data reduction method of §3.2 (Algorithm 1): intra-merge of
//     equivalent P-locations, inter-merge of consecutive identical sample
//     sets, and PSL-based object pruning;
//   - object presence and indoor flow per §2.3 (Equations 1 and 2), with two
//     interchangeable engines: the paper-faithful path-enumeration engine
//     (Algorithm 2's path construction) and an exactly-equivalent forward
//     dynamic-programming engine that avoids materializing the exponential
//     path set;
//   - the flow computation for a single S-location (§3.3, Algorithm 2);
//   - the three TkPLQ search algorithms of §4: Naive, Nested-Loop
//     (Algorithm 3) and Best-First (Algorithm 4, aggregate R-tree join with
//     max-heap upper-bound pruning).
//
// There is one evaluation pipeline (partial.go): Nested-Loop's shared
// per-object pass feeding one finisher that sums presences into flows and
// ranks. One driver (Driver.Answer, query.go) runs it for every query — Do is
// a batch of one — over two row sources: a table streams the pass, a cluster
// router merges the passes its shards ran; only Naive (the flow pass once per
// location, sharing nothing) and Best-First, on a lone local top-k, search
// the presence oracle their own way. A window is
// objects ascending with their sources beside them — raw records, and over
// sealed partitions the runs of Algorithm 1 kept per slab (slab.go), so a
// sealed record is reduced once — and everything downstream of it, the memo,
// the oracle and Best-First's RC, indexes objects by window position. The per-object work (reduction, presence
// summarization) fans out over a bounded worker pool (Options.Workers) in
// contiguous position ranges, while every floating-point accumulation walks
// positions ascending, which is ascending object id — so rankings and flows
// are bit-identical for every worker count, shard count and algorithm. One
// cache (windowcache.go, Query.DisableCache) lets a repeated window reuse
// its materialized sequences, every per-object reduction and summary computed
// over them and Best-First's R-trees over those reductions (bestfirst.go); the
// table's identity for the window (iupt.WindowIdentity) is the whole proof of
// a hit, so nothing invalidates and an ingest does not know the cache exists.
// A window the cache does not keep is evaluated in pooled memory that its
// query hands back when done.
// The live feeds behind Subscribe retain their own per-object summaries and
// use no cache; each reads its table once, when it is built, and takes every
// later record from the NotifyAppend announcements in its mailbox.
package core

import (
	"errors"
	"runtime"
	"sync"

	"tkplq/internal/indoor"
)

// EngineKind selects how object presence is computed.
type EngineKind uint8

const (
	// EngineDP computes presence with a forward dynamic program over the
	// positioning sequence. It produces exactly the same values as
	// EngineEnum in polynomial time and is the default.
	EngineDP EngineKind = iota
	// EngineEnum materializes the valid possible paths exactly as the
	// paper's Algorithm 2 does. Worst-case exponential in sequence length;
	// bounded by DefaultPathBudget with automatic fallback to the DP.
	EngineEnum
)

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	if k == EngineEnum {
		return "enum"
	}
	return "dp"
}

// PresenceMode selects the normalization of Equation 1.
type PresenceMode uint8

const (
	// NormalizedValid divides the pass-weighted mass by the total mass of
	// valid paths, as written in Equation 1 and Algorithm 2 (lines 16-21).
	NormalizedValid PresenceMode = iota
	// UnnormalizedTotal divides by the total Cartesian mass (= 1), i.e.
	// skips the division. This reproduces the paper's worked Example 3
	// (Φ(r6, o2) = 0.85, flow 1.97), which is inconsistent with Equation 1
	// as printed; see DESIGN.md §3 for the discrepancy note.
	UnnormalizedTotal
)

// String implements fmt.Stringer.
func (m PresenceMode) String() string {
	if m == UnnormalizedTotal {
		return "unnormalized"
	}
	return "normalized"
}

// Algorithm selects the TkPLQ search strategy (§4).
type Algorithm uint8

const (
	// AlgoNaive computes the flow of every query location independently.
	AlgoNaive Algorithm = iota
	// AlgoNestedLoop shares per-object intermediate results across all
	// query locations (Algorithm 3).
	AlgoNestedLoop
	// AlgoBestFirst joins an R-tree over the query locations with a
	// COUNT-aggregate R-tree over object PSLs, guided by a max-heap of flow
	// upper bounds, terminating after k results (Algorithm 4).
	AlgoBestFirst
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgoNestedLoop:
		return "nested-loop"
	case AlgoBestFirst:
		return "best-first"
	default:
		return "naive"
	}
}

// DefaultPathBudget bounds the number of materialized paths per object for
// EngineEnum before falling back to the DP engine.
const DefaultPathBudget = 1 << 20

// ErrPathBudget is returned by the enumeration engine when an object's valid
// path set would exceed the configured budget.
var ErrPathBudget = errors.New("core: path budget exceeded")

// Options configures an Engine. The zero value selects the defaults used
// throughout the evaluation: DP engine, normalized presence, full data
// reduction.
type Options struct {
	// Engine selects presence computation; see EngineKind.
	Engine EngineKind
	// Presence selects Equation 1 normalization; see PresenceMode.
	Presence PresenceMode
	// DisableReduction turns off the whole data reduction method
	// (the paper's -ORG variants): no merging and no PSL∩Q pruning.
	// PSLs are still derived, because Best-First needs them for its
	// aggregate R-tree.
	DisableReduction bool
	// DisableIntraMerge turns off only the intra-merge (ablation).
	DisableIntraMerge bool
	// DisableInterMerge turns off only the inter-merge (ablation).
	DisableInterMerge bool
	// StrictPaths keeps the paper's exact path semantics: a sequence with
	// a topologically impossible step (no valid sample pair between two
	// consecutive sample sets) has an empty valid-path set and presence 0
	// everywhere. The default (false) splits such sequences at impossible
	// steps and combines per-segment presences with the Equation 2 union
	// rule — behavior is identical on sequences without impossible steps.
	StrictPaths bool
	// Workers bounds the worker pool of the sharded evaluation pipeline:
	// the query interval's objects are partitioned into contiguous shards
	// and their reductions and presence summaries are computed across this
	// many goroutines, while flow accumulation stays in canonical ascending
	// object order — so results (rankings *and* flows, bit for bit) and all
	// work statistics are identical for every worker count.
	//
	// 0 selects runtime.GOMAXPROCS(0); 1 (or any negative value) forces the
	// single-threaded path, exactly as the paper's algorithms are written.
	Workers int

	// pathBudget caps the enumerated path set per object for EngineEnum;
	// 0 selects DefaultPathBudget. Only a test sets it.
	pathBudget int
}

// workerCount resolves the effective worker pool size; see Options.Workers.
func (o Options) workerCount() int {
	w := o.Workers
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		return 1
	}
	return w
}

// Engine computes flows and answers TkPLQ over one indoor space.
// An Engine is safe for concurrent use: its configuration is immutable,
// per-query state lives in the query functions, and the window cache is
// internally synchronized.
type Engine struct {
	Driver // the space and the flights
	opts   Options
	cache  *windowCache // nil in a per-query view with Query.DisableCache
	slabs  *slabStore   // shared by the per-query views
	mons   *monitorRegistry
	// scratch pools per-worker summarizeScratch arenas so the reduce →
	// summarize hot path reuses its working memory across objects. A shared
	// pointer, so per-query engine views (query.go) copy the Engine shallowly
	// and still feed the same pool. bfScratch does the same for the working
	// memory of a Best-First search.
	scratch   *sync.Pool
	bfScratch *sync.Pool
}

// NewEngine returns an engine for the space with the given options.
func NewEngine(space *indoor.Space, opts Options) *Engine {
	return &Engine{Driver: Driver{space: space, coal: newCoalescer(), workers: opts.Workers}, opts: opts,
		cache: newWindowCache(), slabs: newSlabStore(), mons: newMonitorRegistry(), scratch: &sync.Pool{}, bfScratch: &sync.Pool{}}
}

// Space returns the engine's indoor space.
func (e *Engine) Space() *indoor.Space { return e.space }

// Options returns the engine's options.
func (e *Engine) Options() Options { return e.opts }

// Result is one ranked answer of a TkPLQ.
type Result struct {
	SLoc indoor.SLocID
	Flow float64
}

// Stats reports work performed by a flow computation or TkPLQ search.
type Stats struct {
	// ObjectsTotal is |O|: objects with records in the query interval.
	ObjectsTotal int
	// ObjectsComputed is |Of|: objects whose presence was actually
	// computed. The paper's pruning ratio is derived from these two.
	ObjectsComputed int
	// PathsEnumerated counts materialized paths (enumeration engine only).
	PathsEnumerated int64
	// BudgetFallbacks counts objects whose enumeration exceeded
	// DefaultPathBudget and fell back to the DP engine.
	BudgetFallbacks int
	// SampleSetsOriginal and SampleSetsReduced measure the data reduction:
	// total sample sets before and after Algorithm 1 across processed
	// objects.
	SampleSetsOriginal int64
	SampleSetsReduced  int64
	// HeapPops counts Best-First heap extractions.
	HeapPops int
	// SequenceBreaks counts topologically impossible steps encountered
	// (each splits a sequence into one more segment; see
	// Options.StrictPaths).
	SequenceBreaks int64
	// Workers is the size of the largest worker pool the query actually
	// fanned out over (1 when everything ran on the calling goroutine; see
	// Options.Workers).
	Workers int
	// CacheHits and CacheMisses count, one per object whose presence summary
	// this query asked for, those served from the cached window's memo and
	// those computed. Both stay 0 when the cache is bypassed
	// (Query.DisableCache, Naive, subscription feeds).
	CacheHits   int64
	CacheMisses int64
	// Coalesced is 1 when this query did not evaluate at all: it joined a
	// concurrent identical caller's in-flight evaluation and received a copy
	// of that leader's results (the other Stats fields then describe the
	// leader's work). 0 for the caller that performed the evaluation, and
	// always 0 when Query.DisableCoalescing is set.
	Coalesced int64
	// SharedBatch is the number of queries that shared this evaluation's
	// per-object data reduction and presence summarization inside one
	// Engine.DoBatch group (the other per-object fields then describe the
	// group's single shared pass). 0 for queries evaluated on their own.
	SharedBatch int
}

// PruningRatio returns σ = (|O| - |Of|) / |O| (§5.1); 0 for an empty O.
func (s *Stats) PruningRatio() float64 {
	if s.ObjectsTotal == 0 {
		return 0
	}
	return float64(s.ObjectsTotal-s.ObjectsComputed) / float64(s.ObjectsTotal)
}

// addObject counts one summarized object: its summary's paths and segment
// breaks, whether its enumeration fell back, and its sample sets before
// (original) and after (reduced) Algorithm 1. The shared pass (apply) and
// the live feed (recomputeLocked) count through it alike.
func (s *Stats) addObject(sum *ObjectSummary, fellBack bool, original, reduced int) {
	s.ObjectsComputed++
	s.PathsEnumerated += sum.Paths
	if sum.Segments > 1 {
		s.SequenceBreaks += int64(sum.Segments - 1)
	}
	if fellBack {
		s.BudgetFallbacks++
	}
	s.SampleSetsOriginal += int64(original)
	s.SampleSetsReduced += int64(reduced)
}

// add accumulates other into s.
func (s *Stats) add(other *Stats) {
	s.ObjectsTotal += other.ObjectsTotal
	s.ObjectsComputed += other.ObjectsComputed
	s.PathsEnumerated += other.PathsEnumerated
	s.BudgetFallbacks += other.BudgetFallbacks
	s.SampleSetsOriginal += other.SampleSetsOriginal
	s.SampleSetsReduced += other.SampleSetsReduced
	s.HeapPops += other.HeapPops
	s.SequenceBreaks += other.SequenceBreaks
	if other.Workers > s.Workers {
		s.Workers = other.Workers
	}
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	s.Coalesced += other.Coalesced
}
