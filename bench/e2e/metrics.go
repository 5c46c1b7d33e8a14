package main

import (
	"math"
	"sort"
)

// Workload names, in the order the suite runs them.
const (
	wlCold    = "query_cold"
	wlHot     = "query_hot"
	wlCluster = "cluster_query"
	wlLive    = "live_mix"
)

// workloads lists every workload with the one-line reason it exists (the
// `why` of BENCHMARK.json; README.md has the long form).
var workloads = []struct{ name, why string }{
	{wlCold, "no window repeats: every presence and sealed-window lookup misses, so reduce, summarize and partition materialization dominate and the caches only cost"},
	{wlHot, "16 aligned windows picked by Zipf(1.1): after warm-up every lookup hits, leaving server JSON, cache verification and ranking"},
	{wlCluster, "the query_cold sequence through a router and 2 shards: partial encode/decode, fan-out and merge on top of halved per-shard compute"},
	{wlLive, "durable ingest, subscription push and head queries interleaved: WAL append+fsync, invalidation, incremental monitor and count-triggered seals beside reads"},
}

// Applicability masks: which workloads report a metric.
const (
	onCold uint8 = 1 << iota
	onHot
	onCluster
	onLive
	onAll        = onCold | onHot | onCluster | onLive
	onStandalone = onCold | onHot | onLive
)

func maskOf(workload string) uint8 {
	switch workload {
	case wlCold:
		return onCold
	case wlHot:
		return onHot
	case wlCluster:
		return onCluster
	case wlLive:
		return onLive
	}
	return 0
}

// metric describes one reported number. bound is the relative worsening an
// end-to-end metric may show before a change counts as a regression, zero
// for per-layer metrics, which are never gated. traced marks per-layer
// metrics that only the traced run produces.
type metric struct {
	name, unit, better string
	bound              float64
	on                 uint8
	traced             bool
}

// endToEnd are the six user-visible metrics. The four reported by every
// workload form BENCHMARK.json's end_to_end list; ingest_p50_ms and
// push_p50_ms exist only on live_mix and are gated by -calibrate alone.
//
// Every bound is 0.25, the widest the builder's contract allows. ISSUE.md
// asked for 0.10, but the driver refuses a benchmark whose ten-run spread
// (quartile distance over median) exceeds the bound, and on the shared
// two-core reference VM runs of the same code and seed drift by 3–13 % over
// minutes in CPU time per operation itself, whatever is measured
// (README.md, "Repeatability"). Two interleaved sets of runs agree far more
// closely than that, which is how a gain is to be claimed; the bound only
// has to stay clear of the drift.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, on: onAll},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25, on: onAll},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25, on: onAll},
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: onAll},
	{name: "ingest_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: onLive},
	{name: "push_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: onLive},
}

// perLayer are the ungated single-layer metrics. README.md says what each
// one measures and which end-to-end metric it should move.
var perLayer = []metric{
	{name: "server.http_overhead_ms", unit: "ms", better: "lower", on: onStandalone, traced: true},
	{name: "server.ingest_overhead_ms", unit: "ms", better: "lower", on: onLive, traced: true},
	{name: "server.router_overhead_ms", unit: "ms", better: "lower", on: onCluster, traced: true},
	{name: "server.query_p90_ms", unit: "ms", better: "lower", on: onAll},
	{name: "server.query_p99_ms", unit: "ms", better: "lower", on: onAll},
	{name: "server.ingest_p99_ms", unit: "ms", better: "lower", on: onLive},
	{name: "server.push_p99_ms", unit: "ms", better: "lower", on: onLive},
	{name: "server.response_bytes", unit: "bytes", better: "lower", on: onAll},

	{name: "core.do_ms", unit: "ms", better: "lower", on: onStandalone, traced: true},
	{name: "core.do_serial_ms", unit: "ms", better: "lower", on: onStandalone, traced: true},
	{name: "core.parallel_speedup", unit: "ratio", better: "higher", on: onStandalone, traced: true},
	{name: "core.reduce_ms", unit: "ms", better: "lower", on: onAll, traced: true},
	{name: "core.summarize_ms", unit: "ms", better: "lower", on: onAll, traced: true},
	{name: "core.rank_ms", unit: "ms", better: "lower", on: onCold, traced: true},
	{name: "core.rank_nonneg_ratio", unit: "ratio", better: "higher", on: onCold, traced: true},
	{name: "core.partial_ms", unit: "ms", better: "lower", on: onCluster, traced: true},
	{name: "core.merge_ms", unit: "ms", better: "lower", on: onCluster, traced: true},
	{name: "core.finish_ms", unit: "ms", better: "lower", on: onCluster, traced: true},
	{name: "core.objects_total", unit: "count", better: "lower", on: onAll},
	{name: "core.objects_computed", unit: "count", better: "lower", on: onAll},
	{name: "core.sample_sets_reduced_ratio", unit: "ratio", better: "lower", on: onAll},
	{name: "core.heap_pops", unit: "count", better: "lower", on: onAll},
	{name: "core.cache_hit_ratio", unit: "ratio", better: "higher", on: onAll},
	{name: "core.coalesced", unit: "count", better: "higher", on: onAll},
	{name: "core.window_cache_hit_ratio", unit: "ratio", better: "higher", on: onAll},
	{name: "core.window_cache_mb", unit: "MB", better: "lower", on: onAll},
	{name: "core.monitor_recomputed_objects", unit: "count", better: "lower", on: onLive},
	{name: "core.push_after_ack_ms", unit: "ms", better: "lower", on: onLive},
	{name: "core.warmup_s", unit: "s", better: "lower", on: onAll},

	{name: "iupt.window_ms", unit: "ms", better: "lower", on: onAll, traced: true},
	{name: "iupt.records_per_window", unit: "count", better: "lower", on: onAll, traced: true},
	{name: "iupt.append_us_per_record", unit: "us", better: "lower", on: onLive, traced: true},

	{name: "parts.load_s", unit: "s", better: "lower", on: onAll},
	{name: "parts.seal_ms", unit: "ms", better: "lower", on: onAll},
	{name: "parts.open_ms", unit: "ms", better: "lower", on: onAll},
	{name: "parts.compact_ms", unit: "ms", better: "lower", on: onLive},
	{name: "parts.partitions", unit: "count", better: "lower", on: onAll},
	{name: "parts.records_decoded", unit: "count", better: "lower", on: onAll},
	{name: "parts.sealed_bytes_per_record", unit: "bytes", better: "lower", on: onAll},
	{name: "parts.mapped_mb", unit: "MB", better: "lower", on: onAll},

	{name: "wal.append_ms", unit: "ms", better: "lower", on: onLive, traced: true},
	{name: "wal.fsyncs_per_batch", unit: "count", better: "lower", on: onLive},
	{name: "wal.bytes_per_record", unit: "bytes", better: "lower", on: onLive},

	{name: "cluster.shard_skew", unit: "ratio", better: "lower", on: onCluster},
	{name: "cluster.partial_bytes", unit: "bytes", better: "lower", on: onCluster, traced: true},

	{name: "sim.generate_s", unit: "s", better: "lower", on: onAll},

	{name: "runtime.alloc_mb_per_op", unit: "MB", better: "lower", on: onAll},
	{name: "runtime.allocs_per_op", unit: "count", better: "lower", on: onAll},
	{name: "runtime.gc_cpu_fraction", unit: "ratio", better: "lower", on: onAll},
	{name: "runtime.heap_live_mb", unit: "MB", better: "lower", on: onAll},
	{name: "runtime.heap_growth_ratio", unit: "ratio", better: "lower", on: onAll},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower", on: onAll},

	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", on: onAll, traced: true},
}

// universal returns the metrics of defs that every workload reports: the
// only ones BENCHMARK.json may list, because the builder's contract wants
// every listed metric from every workload.
func universal(defs []metric) []metric {
	var out []metric
	for _, m := range defs {
		if m.on == onAll {
			out = append(out, m)
		}
	}
	return out
}

// median returns the median of xs (mean of the middle pair for even counts);
// NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs;
// NaN for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
