package main

// MetricDef describes one reported metric: its name and unit as they
// appear in BENCHMARK.json, which direction is better, and — for
// per-layer metrics — the end-to-end metric and workload it should
// move and the workloads on which it predicts no change.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves and NoChange document the layer → end-to-end map.
	Moves    string
	NoChange string
}

// endToEnd lists the metrics a user of wrhtsim or wrhtd sees. Every
// workload reports all of them: for repro one operation is one full
// `wrhtsim all` reproduction, for serve-* one operation is one request.
var endToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer lists the traced run's metrics. Each is reported on every
// workload; a layer a workload never reaches reads 0 there.
var perLayer = []MetricDef{
	{Name: "exp.fig7_s", Unit: "s", Better: "lower",
		Moves: "wall_s, cpu_ms_per_op, peak_rss_mb @ repro", NoChange: "serve-*"},
	{Name: "exp.stragglers_s", Unit: "s", Better: "lower",
		Moves: "wall_s @ repro (sequential: the floor under any solver gain)", NoChange: "serve-*"},
	{Name: "exp.rest_s", Unit: "s", Better: "lower",
		Moves: "wall_s @ repro (small)"},
	{Name: "exp.fig7_pool_efficiency", Unit: "ratio", Better: "higher",
		Moves: "wall_s but not cpu_ms_per_op @ repro"},
	{Name: "exp.fig7_alloc_mb", Unit: "MB", Better: "lower",
		Moves: "peak_rss_mb, cpu_ms_per_op @ repro"},
	{Name: "exp.fig7_peak_heap_mb", Unit: "MB", Better: "lower",
		Moves: "peak_rss_mb, cpu_ms_per_op @ repro"},
	{Name: "fabric.electrical_run_s", Unit: "s", Better: "lower",
		Moves: "cpu_ms_per_op @ repro and serve-fattree", NoChange: "serve-optical"},
	{Name: "electrical.us_per_step", Unit: "us", Better: "lower",
		Moves: "cpu_ms_per_op @ repro and serve-fattree", NoChange: "serve-optical"},
	{Name: "electrical.network_ms", Unit: "ms", Better: "lower",
		Moves: "latency_p50_ms @ serve-fattree", NoChange: "serve-optical"},
	{Name: "fabric.electrical_run_ms", Unit: "ms", Better: "lower",
		Moves: "latency_p50_ms, latency_p99_ms, throughput_rps @ serve-fattree", NoChange: "serve-optical"},
	{Name: "collective.profile_cache_hit_ratio", Unit: "ratio", Better: "higher",
		Moves: "exp.rest_s @ repro"},
	{Name: "daemon.build_p50_ms", Unit: "ms", Better: "lower",
		Moves: "latency_* @ serve-optical", NoChange: "repro"},
	{Name: "daemon.simulate_p50_ms", Unit: "ms", Better: "lower",
		Moves: "latency_* @ serve-optical and serve-fattree", NoChange: "repro"},
	{Name: "daemon.plan_p50_ms", Unit: "ms", Better: "lower",
		Moves: "latency_* @ serve-optical", NoChange: "repro"},
	{Name: "daemon.sweep_p50_ms", Unit: "ms", Better: "lower",
		Moves: "latency_* @ serve-optical and serve-fattree", NoChange: "repro"},
	{Name: "daemon.build_count", Unit: "count", Better: "higher",
		Moves: "throughput_rps @ serve-optical", NoChange: "repro"},
	{Name: "daemon.simulate_count", Unit: "count", Better: "higher",
		Moves: "throughput_rps @ serve-*", NoChange: "repro"},
	{Name: "daemon.plan_count", Unit: "count", Better: "higher",
		Moves: "throughput_rps @ serve-optical", NoChange: "repro"},
	{Name: "daemon.sweep_count", Unit: "count", Better: "higher",
		Moves: "throughput_rps @ serve-*", NoChange: "repro"},
	{Name: "daemon.coalesce_hit_ratio", Unit: "ratio", Better: "higher",
		Moves: "throughput_rps @ serve-* (about 0 by design)", NoChange: "repro"},
	{Name: "daemon.overhead_us", Unit: "us", Better: "lower",
		Moves: "latency_p50_ms @ serve-optical", NoChange: "repro"},
	{Name: "daemon.overhead_allocs", Unit: "count", Better: "lower",
		Moves: "latency_p50_ms @ serve-optical", NoChange: "repro"},
	{Name: "api.encode_us", Unit: "us", Better: "lower",
		Moves: "latency_p50_ms @ serve-optical", NoChange: "repro"},
	{Name: "core.build_ms", Unit: "ms", Better: "lower",
		Moves: "latency_p50_ms @ serve-optical", NoChange: "repro, serve-fattree"},
	{Name: "core.build_allocs", Unit: "count", Better: "lower",
		Moves: "latency_p50_ms @ serve-optical", NoChange: "repro, serve-fattree"},
	{Name: "collective.build_ms", Unit: "ms", Better: "lower",
		Moves: "latency_p99_ms @ serve-optical (Ring), latency_p50_ms @ serve-fattree", NoChange: "repro"},
	{Name: "rwa.validate_ms", Unit: "ms", Better: "lower",
		Moves: "latency_* @ serve-optical", NoChange: "serve-fattree, repro"},
	{Name: "rwa.validate_allocs", Unit: "count", Better: "lower",
		Moves: "latency_* @ serve-optical", NoChange: "serve-fattree, repro"},
	{Name: "core.stream_build_ms", Unit: "ms", Better: "lower",
		Moves: "latency_p99_ms @ serve-optical", NoChange: "repro"},
	{Name: "fabric.optical_run_ms", Unit: "ms", Better: "lower",
		Moves: "latency_p50_ms @ serve-optical", NoChange: "serve-fattree"},
	{Name: "fabric.optical_run_allocs", Unit: "count", Better: "lower",
		Moves: "latency_p50_ms @ serve-optical", NoChange: "serve-fattree"},
	{Name: "ir.passes_ms", Unit: "ms", Better: "lower",
		Moves: "latency_p99_ms @ serve-optical", NoChange: "serve-fattree"},
	{Name: "plan.plan_ms", Unit: "ms", Better: "lower",
		Moves: "latency_p99_ms @ serve-optical", NoChange: "serve-fattree"},
	{Name: "exp.sweep_ms", Unit: "ms", Better: "lower",
		Moves: "latency_p99_ms @ whichever serve-* sends the sweep"},
	{Name: "exp.sweep.crossfabric_ms", Unit: "ms", Better: "lower",
		Moves: "latency_p99_ms @ serve-fattree", NoChange: "serve-optical"},
	{Name: "exp.sweep.overlap_ms", Unit: "ms", Better: "lower",
		Moves: "latency_p99_ms @ serve-optical", NoChange: "serve-fattree"},
	{Name: "exp.sweep.faults_ms", Unit: "ms", Better: "lower",
		Moves: "latency_p99_ms @ serve-optical", NoChange: "serve-fattree"},
}

// workloads lists the benchmark's workloads and why each exists.
var workloads = []struct{ Name, Why string }{
	{"repro", "wrhtsim all, the fixed paper evaluation a researcher waits for; mostly the fat-tree solver in Fig 7 plus the sequential straggler DES"},
	{"serve-optical", "2 closed-loop clients asking wrhtd for optical answers: construction, RWA validation, IR, planner and optical engine; never the fat-tree solver"},
	{"serve-fattree", "2 closed-loop clients asking wrhtd for fat-tree answers: many small solves, each on a fresh electrical network, under concurrent traffic"},
}
