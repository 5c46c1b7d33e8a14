// Package tkplq is a from-scratch Go implementation of "Finding Most
// Popular Indoor Semantic Locations Using Uncertain Mobility Data" (Li, Lu,
// Shou, Chen, Chen — IEEE TKDE 31(11), 2019).
//
// It answers Top-k Popular Location Queries (TkPLQ) over uncertain indoor
// positioning data: given per-object probabilistic location samples, an
// indoor topology, a set of semantic locations and a past time interval, it
// returns the k locations with the highest uncertainty-aware indoor flows.
//
// The package is a facade over the internal implementation:
//
//   - indoor space modeling (partitions, doors, P/S-locations, cells, the
//     indoor space location graph and indoor location matrix);
//   - the IUPT store: sealed time partitions plus a mutable head, searched
//     by bisection on a time-sorted snapshot;
//   - the data reduction method and the flow/presence computation with two
//     interchangeable engines (paper-faithful path enumeration, and an
//     equivalent polynomial-time dynamic program);
//   - the Naive, Nested-Loop and Best-First search algorithms;
//   - simulators (building generation, random-waypoint movement, WkNN
//     positioning, RFID tracking) and evaluation metrics.
//
// See the examples/ directory for runnable walkthroughs and DESIGN.md for
// the paper-to-code map.
package tkplq

import (
	"tkplq/internal/core"
	"tkplq/internal/eval"
	"tkplq/internal/geom"
	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/sim"
)

// Geometry.
type (
	// Point is a planar point in meters.
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
)

// Pt builds a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// R builds a normalized Rect from two corners.
func R(x1, y1, x2, y2 float64) Rect { return geom.R(x1, y1, x2, y2) }

// Indoor model.
type (
	// Space is an immutable, validated indoor space.
	Space = indoor.Space
	// SpaceBuilder assembles a Space.
	SpaceBuilder = indoor.Builder
	// PartitionID identifies a partition.
	PartitionID = indoor.PartitionID
	// DoorID identifies a door.
	DoorID = indoor.DoorID
	// PLocID identifies a positioning P-location.
	PLocID = indoor.PLocID
	// SLocID identifies a semantic S-location.
	SLocID = indoor.SLocID
	// CellID identifies a derived cell.
	CellID = indoor.CellID
	// PartitionKind classifies partitions.
	PartitionKind = indoor.PartitionKind
)

// Partition kinds.
const (
	Room      = indoor.Room
	Hallway   = indoor.Hallway
	Staircase = indoor.Staircase
)

// NewSpaceBuilder returns an empty space builder.
func NewSpaceBuilder() *SpaceBuilder { return indoor.NewBuilder() }

// PaperExampleSpace returns the paper's Figure 1 running example.
func PaperExampleSpace() *indoor.Figure1 { return indoor.Figure1Space() }

// Positioning data.
type (
	// ObjectID identifies a moving object.
	ObjectID = iupt.ObjectID
	// Time is a timestamp in seconds since the dataset epoch.
	Time = iupt.Time
	// Sample is one probabilistic positioning sample.
	Sample = iupt.Sample
	// SampleSet is a positioning record's sample set.
	SampleSet = iupt.SampleSet
	// Record is one positioning record (oid, X, t).
	Record = iupt.Record
	// Table is the Indoor Uncertain Positioning Table.
	Table = iupt.Table
)

// NewTable returns an empty IUPT.
func NewTable() *Table { return iupt.NewTable() }

// Query machinery.
type (
	// Query is one self-describing query for System.Do / System.DoBatch:
	// kind (topk | density | flow | presence), algorithm, k, time window,
	// S-location set, and per-query overrides (Workers, DisableCache,
	// DisableCoalescing).
	Query = core.Query
	// Response is the answer to one Query: ranked Results, the scalar Flow
	// convenience value (flow/presence kinds), and Stats.
	Response = core.Response
	// QueryKind selects what a Query computes.
	QueryKind = core.QueryKind
	// Options configures the query engine. Options.Workers bounds the
	// sharded evaluation pipeline's worker pool (0 = GOMAXPROCS, 1 =
	// single-threaded); results are bit-identical at every pool size. The
	// window cache and request coalescing are always on; a query bypasses
	// them with Query.DisableCache and Query.DisableCoalescing.
	Options = core.Options
	// EngineKind selects the presence computation engine.
	EngineKind = core.EngineKind
	// PresenceMode selects Equation 1 normalization.
	PresenceMode = core.PresenceMode
	// Algorithm selects the TkPLQ search strategy.
	Algorithm = core.Algorithm
	// Result is one ranked TkPLQ answer.
	Result = core.Result
	// Stats reports work performed by a query, including the worker-pool
	// size used, window-cache hits and misses, and whether the query was
	// coalesced onto a concurrent identical evaluation (Stats.Coalesced).
	Stats = core.Stats
	// CacheStats is a snapshot of the engine's window-cache and request-
	// coalescer state.
	CacheStats = core.CacheStats
	// Subscription is a live feed of ranking changes from System.Subscribe.
	Subscription = core.Subscription
	// Update is one pushed ranking change on a Subscription.
	Update = core.Update
	// MonitorStat describes one live monitor (System.MonitorStats).
	MonitorStat = core.MonitorStat
)

// Query kinds for Query.Kind.
const (
	// KindTopK is the Top-k Popular Location Query (the zero value).
	KindTopK = core.KindTopK
	// KindDensity ranks by flow per square meter.
	KindDensity = core.KindDensity
	// KindFlow computes one S-location's indoor flow.
	KindFlow = core.KindFlow
	// KindPresence computes one object's presence in one S-location.
	KindPresence = core.KindPresence
)

// Engine and algorithm selectors.
const (
	// EngineDP computes presence with the forward dynamic program
	// (default; exact, polynomial time).
	EngineDP = core.EngineDP
	// EngineEnum materializes valid paths as in the paper's Algorithm 2.
	EngineEnum = core.EngineEnum
	// NormalizedValid normalizes presence over valid-path mass (Eq. 1).
	NormalizedValid = core.NormalizedValid
	// UnnormalizedTotal reproduces the paper's worked-example arithmetic.
	UnnormalizedTotal = core.UnnormalizedTotal
	// Naive computes each query location independently.
	Naive = core.AlgoNaive
	// NestedLoop shares per-object work across locations (Algorithm 3).
	NestedLoop = core.AlgoNestedLoop
	// BestFirst prunes via the aggregate R-tree join (Algorithm 4).
	BestFirst = core.AlgoBestFirst
)

// Simulation.
type (
	// Building couples a generated space with navigation structures.
	Building = sim.Building
	// BuildingConfig parametrizes building generation.
	BuildingConfig = sim.BuildingConfig
	// MovementConfig parametrizes random-waypoint movement.
	MovementConfig = sim.MovementConfig
	// PositioningConfig parametrizes the WkNN sampler.
	PositioningConfig = sim.PositioningConfig
	// Trajectory is an object's exact ground-truth track.
	Trajectory = sim.Trajectory
)

// Evaluation.
type (
	// Metrics bundles recall and Kendall τ.
	Metrics = eval.Metrics
)
