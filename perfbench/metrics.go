package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The same names, units and
// directions are listed in BENCHMARK.json; TestMetricTablesMatchBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the checker sees. Every workload
// reports all of them from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"checks_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"alloc_mb_per_check", "MB", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// perLayer are the metrics of single layers, reported by the traced run.
// Self times are per check of the traced phase (so a workload's self times
// add up to its mean latency); counts named after a layer's result are
// means per call of that layer. A layer the workload never calls reads 0.
var perLayer = []metricDef{
	// Front end.
	{"parser.self_ms", "ms", "lower"},
	{"parser.calls", "count", "higher"},
	{"parser.kb_per_s", "KB/s", "higher"},
	{"kiss.self_ms", "ms", "lower"},
	{"kiss.out_stmts", "count", "lower"},
	{"cbseq.self_ms", "ms", "lower"},
	{"cbseq.out_stmts", "count", "lower"},
	{"sem.compile_ms", "ms", "lower"},
	// Search.
	{"seqcheck.self_ms", "ms", "lower"},
	{"seqcheck.states", "count", "lower"},
	{"seqcheck.steps", "count", "lower"},
	{"seqcheck.states_stepped", "count", "lower"},
	{"seqcheck.visited", "count", "lower"},
	{"seqcheck.peak_frontier", "count", "lower"},
	{"seqcheck.max_states_trips", "ratio", "lower"},
	{"sem.step_ns", "ns", "lower"},
	{"sem.hash_ns", "ns", "lower"},
	{"visited.insert_ns", "ns", "lower"},
	{"sem.memo_hit_ratio", "ratio", "higher"},
	{"sem.memo_steps_saved", "count", "higher"},
	{"sem.summary_hit_ratio", "ratio", "higher"},
	{"sem.summary_steps_saved", "count", "higher"},
	// Memory budget.
	{"frontier.spilled_mb", "MB", "lower"},
	{"frontier.spilled_frames", "count", "lower"},
	{"frontier.spill_runs", "count", "lower"},
	{"frontier.merge_passes", "count", "lower"},
	{"frontier.peak_ram_kb", "KB", "lower"},
	{"frontier.push_ns", "ns", "lower"},
	{"frontier.drain_ns", "ns", "lower"},
	{"visited.filter_kb", "KB", "lower"},
	{"visited.occupancy", "ratio", "lower"},
	// Trace reconstruction and ground truth.
	{"trace.self_ms", "ms", "lower"},
	{"trace.calls", "count", "higher"},
	{"concheck.self_ms", "ms", "lower"},
	{"concheck.states", "count", "lower"},
	// Go runtime.
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	// Service tier.
	{"service.overhead_ms_p50", "ms", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.summary_hit_ratio", "ratio", "higher"},
	{"service.rejected", "count", "lower"},
	{"coord.owner_hits", "count", "higher"},
	{"coord.peer_hits", "count", "higher"},
	{"coord.reroutes", "count", "lower"},
	{"coord.computed", "count", "lower"},
	// The cost of tracing itself.
	{"tracing.overhead_pct", "%", "lower"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is how the spread of repeated runs is judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
