package main

import "repro/wave"

// A workload is one fixed, seeded, sub-saturation operating point. Every
// workload carries a simulation (config + traffic + window); the serve
// workload submits that simulation as waved jobs instead of calling RunLoad.
//
// Cycle counts are frozen here: they are part of the benchmark's definition,
// not a run-time knob. Only -quick divides them (by quickScale) for the smoke
// test, and it says so in its output.
type workload struct {
	name string
	// why is the one-line reason copied into BENCHMARK.json.
	why string
	// config returns the simulator configuration for a seed; the program
	// under test sees only this config and the traffic parameters below.
	config func(seed uint64) wave.Config
	load   wave.Workload
	warmup int64
	// measure is sized so one run takes 1-3.5 s at the parent commit and
	// Result.Throughput, whose window includes the drain tail, reads within
	// 3 % of the offered load (see README "Window sizes").
	measure int64
	// serve drives the simulation through an in-process waved server.
	serve bool
	// pinnedTwin names the workload whose wave.Stats must equal this one's.
	pinnedTwin string
}

func torus(radix int, seed uint64) wave.Config {
	cfg := wave.DefaultConfig()
	cfg.Topology.Radix = []int{radix, radix}
	cfg.Seed = seed
	cfg.Workers = 1
	return cfg
}

var workloads = []workload{
	{
		name: "wh_uniform_16x16",
		why:  "wormhole allocate/traverse and routing lookup do nearly all the work; pcs, circuit and the CLRP FSM are idle (0 probes)",
		config: func(seed uint64) wave.Config {
			cfg := torus(16, seed)
			cfg.Protocol = "wormhole"
			return cfg
		},
		load:    wave.Workload{Pattern: "uniform", Load: 0.15, FixedLength: 32},
		warmup:  5000,
		measure: 40000,
	},
	{
		name: "wh_uniform_16x16_defaults",
		why:  "same traffic with Workers left at the shipped default 0: auto-tuner, engine.Pool and commit rings instead of the serial loop",
		config: func(seed uint64) wave.Config {
			cfg := torus(16, seed)
			cfg.Protocol = "wormhole"
			cfg.Workers = 0
			return cfg
		},
		load:       wave.Workload{Pattern: "uniform", Load: 0.15, FixedLength: 32},
		warmup:     5000,
		measure:    40000,
		pinnedTwin: "wh_uniform_16x16",
	},
	{
		name: "clrp_reuse_16x16",
		why:  "the paper's locality case: pcs probes, circuit cache hits, protocol FSM and circuit-transfer events do the work; wormhole moves 0 flits",
		config: func(seed uint64) wave.Config {
			cfg := torus(16, seed)
			cfg.CacheCapacity = 8
			return cfg
		},
		load: wave.Workload{Pattern: "uniform", Load: 0.2, FixedLength: 128,
			WorkingSet: 4, Reuse: 0.8, WantCircuit: true},
		warmup:  5000,
		measure: 120000,
	},
	{
		name: "clrp_churn_16x16",
		why:  "same pcs/circuit/protocol layers used the other way: 2-entry caches under hotspot traffic force eviction, teardown and wormhole fallback",
		config: func(seed uint64) wave.Config {
			cfg := torus(16, seed)
			cfg.CacheCapacity = 2
			return cfg
		},
		load: wave.Workload{Pattern: "hotspot", Load: 0.10, FixedLength: 32,
			WorkingSet: 4, Reuse: 0.7},
		warmup:  5000,
		measure: 100000,
	},
	{
		name: "hybrid_32x32",
		why:  "every layer active at the largest size that still takes the flat O(N^2) routing table (53 MB): set-up and memory are table-build bound",
		config: func(seed uint64) wave.Config {
			cfg := torus(32, seed)
			cfg.MinCircuitFlits = 32
			return cfg
		},
		load: wave.Workload{Pattern: "uniform", Load: 0.08,
			BimodalShort: 8, BimodalLong: 256, BimodalPLong: 0.1,
			WorkingSet: 4, Reuse: 0.8},
		warmup:  5000,
		measure: 60000,
	},
	{
		name: "serve_sweep_8x8",
		why:  "waved submit to result bytes for never-seen specs (4 of 5 jobs) and cached repeats: verify, server and resultcache carry the latency, simulation is short",
		config: func(seed uint64) wave.Config {
			cfg := wave.DefaultConfig()
			cfg.Seed = seed
			return cfg
		},
		load: wave.Workload{Pattern: "uniform", Load: 0.1, FixedLength: 64,
			WorkingSet: 4, Reuse: 0.8},
		warmup:  2000,
		measure: 10000,
		serve:   true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// quickScale divides every window in -quick mode.
const quickScale = 50

// window returns the workload's warm-up and measure cycles at a scale
// divisor (1 = full).
func (w *workload) window(scale int64) (warmup, measure int64) {
	return w.warmup / scale, w.measure / scale
}
