package main

// The metric declarations below are mirrored in ../BENCHMARK.json; the smoke
// test fails when a name or unit is in one and not the other.
//
// Simulated time and host time are always named apart: *_cycles is simulated,
// *_s / *_ms / *_ns is host wall time.

type metricDef struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it worse.
	bound float64
}

// setupFloorS: a set-up time is only "worse" when it is also this many
// seconds slower. The 16x16 set-ups take ~20 ms, where process start-up
// jitter alone exceeds any relative bound.
const setupFloorS = 0.015

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_cycles_per_s", "cycles/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"msg_latency_mean_cycles", "cycles", "lower", 0.25},
	{"msg_latency_p99_cycles", "cycles", "lower", 0.25},
	{"accepted_load_ratio", "ratio", "higher", 0.05},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
}

var perLayer = []metricDef{
	{name: "topology.build_ms", unit: "ms", better: "lower"},
	{name: "routing.table_build_ms", unit: "ms", better: "lower"},
	{name: "routing.table_bytes", unit: "bytes", better: "lower"},
	{name: "wave.new_ms", unit: "ms", better: "lower"},
	{name: "routing.lookup_ns.flat", unit: "ns", better: "lower"},
	{name: "routing.lookup_ns.compressed", unit: "ns", better: "lower"},
	{name: "routing.lookup_ns.algorithmic", unit: "ns", better: "lower"},
	{name: "traffic.tick_ns_per_cycle", unit: "ns", better: "lower"},
	{name: "traffic.share", unit: "ratio", better: "lower"},
	{name: "protocol.send_ns_per_msg", unit: "ns", better: "lower"},
	{name: "protocol.share", unit: "ratio", better: "lower"},
	{name: "core.cycle_ns", unit: "ns", better: "lower"},
	{name: "core.share", unit: "ratio", better: "lower"},
	{name: "wormhole.cycle_ns", unit: "ns", better: "lower"},
	{name: "wormhole.flits_moved_per_cycle", unit: "flits/cycle", better: "higher"},
	{name: "wormhole.active_port_fraction", unit: "ratio", better: "lower"},
	{name: "pcs.ns_per_probe", unit: "ns", better: "lower"},
	{name: "pcs.probes_per_kcycle", unit: "1/kcycle", better: "lower"},
	{name: "pcs.backtracks_per_probe", unit: "ratio", better: "lower"},
	{name: "pcs.misroutes_per_probe", unit: "ratio", better: "lower"},
	{name: "pcs.setup_success_ratio", unit: "ratio", better: "higher"},
	{name: "pcs.teardowns_per_kcycle", unit: "1/kcycle", better: "lower"},
	{name: "circuit.hit_ratio", unit: "ratio", better: "higher"},
	{name: "circuit.evictions_per_kcycle", unit: "1/kcycle", better: "lower"},
	{name: "protocol.phase2_share", unit: "ratio", better: "lower"},
	{name: "protocol.phase3_share", unit: "ratio", better: "lower"},
	{name: "protocol.fallback_share", unit: "ratio", better: "lower"},
	{name: "protocol.circuit_fraction", unit: "ratio", better: "higher"},
	{name: "protocol.setup_cycles_mean", unit: "cycles", better: "lower"},
	{name: "protocol.circuit_wait_cycles_mean", unit: "cycles", better: "lower"},
	{name: "engine.workers_selected", unit: "count", better: "lower"},
	{name: "engine.event_ns", unit: "ns", better: "lower"},
	{name: "stats.record_ns_per_msg", unit: "ns", better: "lower"},
	{name: "stats.summarize_ms", unit: "ms", better: "lower"},
	{name: "stats.share", unit: "ratio", better: "lower"},
	{name: "stats.series_add_ns", unit: "ns", better: "lower"},
	{name: "stats.percentile_ms", unit: "ms", better: "lower"},
	{name: "wave.drain_ms", unit: "ms", better: "lower"},
	{name: "wave.allocs_per_kcycle", unit: "1/kcycle", better: "lower"},
	{name: "wave.alloc_bytes_per_kcycle", unit: "bytes/kcycle", better: "lower"},
	{name: "wave.gc_count", unit: "count", better: "lower"},
	{name: "wave.live_heap_mb", unit: "MB", better: "lower"},
	{name: "wave.cpu_s", unit: "s", better: "lower"},
	{name: "snapshot.encode_ms", unit: "ms", better: "lower"},
	{name: "snapshot.bytes", unit: "bytes", better: "lower"},
	{name: "snapshot.restore_ms", unit: "ms", better: "lower"},
	{name: "server.submit_ms_p50", unit: "ms", better: "lower"},
	{name: "server.run_ms_p50", unit: "ms", better: "lower"},
	{name: "server.fetch_ms_p50", unit: "ms", better: "lower"},
	{name: "server.job_cold_ms_p95", unit: "ms", better: "lower"},
	{name: "server.result_bytes", unit: "bytes", better: "lower"},
	{name: "verify.certify_ms", unit: "ms", better: "lower"},
	{name: "resultcache.hit_ms_p50", unit: "ms", better: "lower"},
	{name: "resultcache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "host.calib_ns", unit: "ns", better: "lower"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// withUnits attaches each declared metric's unit to its measured value. A
// declared metric the run did not produce, or a produced value that was not
// declared, is a bug in the benchmark and panics.
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("benchmark: metric " + d.name + " declared but not measured")
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				panic("benchmark: metric " + name + " measured but not declared")
			}
		}
	}
	return out
}
