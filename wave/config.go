// Package wave is the public API of the wave-switching network simulator — a
// full reproduction of "Deadlock- and Livelock-Free Routing Protocols for
// Wave Switching" (Duato, López, Yalamanchili; IPPS 1997).
//
// A Simulator models a k-ary n-cube of wave routers (Figure 2 of the paper):
// wormhole switching through switch S0 and wave-pipelined physical circuits
// through switches S1..Sk, driven by one of four protocols — plain wormhole,
// the paper's CLRP (cache-like) and CARP (compiler-aided) protocols, and a
// per-message circuit-switching baseline.
//
// Typical use:
//
//	cfg := wave.DefaultConfig()
//	cfg.Protocol = "clrp"
//	sim, err := wave.New(cfg)
//	...
//	res, err := sim.RunLoad(wave.Workload{Pattern: "uniform", Load: 0.2,
//	    FixedLength: 64}, 5000, 20000)
//	fmt.Println(res)
package wave

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/topology"
)

// TopologyConfig selects the network shape.
type TopologyConfig struct {
	// Kind is "mesh", "torus", "hypercube", "fattree" or "fullmesh".
	Kind string
	// Radix lists nodes per dimension for mesh/torus (e.g. {8, 8}). For
	// fattree it is the arity k (one element); for fullmesh the node count
	// (one element).
	Radix []int
	// Dims is the hypercube dimensionality, or the fat-tree level count n.
	Dims int
}

// Build constructs the topology.
func (tc TopologyConfig) Build() (topology.Topology, error) {
	switch tc.Kind {
	case "mesh":
		return topology.NewCube(tc.Radix, false)
	case "torus":
		return topology.NewCube(tc.Radix, true)
	case "hypercube":
		return topology.NewHypercube(tc.Dims)
	case "fattree":
		if len(tc.Radix) != 1 {
			return nil, fmt.Errorf("wave: fattree wants Radix = {k}, got %v", tc.Radix)
		}
		return topology.NewFatTree(tc.Radix[0], tc.Dims)
	case "fullmesh":
		if len(tc.Radix) != 1 {
			return nil, fmt.Errorf("wave: fullmesh wants Radix = {nodes}, got %v", tc.Radix)
		}
		return topology.NewFullMesh(tc.Radix[0])
	default:
		return nil, fmt.Errorf("wave: unknown topology kind %q (want mesh, torus, hypercube, fattree or fullmesh)", tc.Kind)
	}
}

// ParseTopology builds the TopologyConfig that the command-line flags
// -topology (kind), -radix and a dims flag name. radix is "AxBx…" for every
// kind that has one: a fat tree's arity and a full mesh's node count are
// one-element radices, whose length Build checks. dims is the hypercube
// dimension or the fat-tree level count; a field the kind does not read stays
// zero. The kind itself, like every size, is checked by Build.
func ParseTopology(kind, radix string, dims int) (TopologyConfig, error) {
	tc := TopologyConfig{Kind: kind}
	if kind == "hypercube" || kind == "fattree" {
		tc.Dims = dims
	}
	if kind == "hypercube" {
		return tc, nil
	}
	parts := strings.Split(radix, "x")
	tc.Radix = make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return tc, fmt.Errorf("bad radix %q: %v", radix, err)
		}
		tc.Radix[i] = v
	}
	return tc, nil
}

// Config is the complete simulator configuration. Zero values are invalid;
// start from DefaultConfig and override.
type Config struct {
	Topology TopologyConfig

	// Protocol is "wormhole", "clrp", "carp" or "pcs".
	Protocol string

	// NumVCs is w, the wormhole virtual channels per physical channel.
	NumVCs int
	// BufDepth is the per-VC flit buffer depth.
	BufDepth int
	// CreditDelay is the wormhole credit-return delay in cycles (0 models an
	// instantaneous credit path).
	CreditDelay int
	// RouteDelay is the wormhole per-hop route-computation delay in cycles,
	// modelling router complexity (experiment E15).
	RouteDelay int
	// RecoveryTimeout, when positive, enables abort-and-retry deadlock
	// recovery for the wormhole network (experiment E16); it is required
	// with Routing "dor-nodateline".
	RecoveryTimeout int64
	// Routing is the wormhole routing function: "dor" or "duato".
	Routing string

	// NumSwitches is k, the wave-pipelined switches per router.
	NumSwitches int
	// MaxMisroutes is m in the MB-m probe protocol.
	MaxMisroutes int
	// WaveClockMult is the wave clock as a multiple of the wormhole clock.
	WaveClockMult float64

	// CacheCapacity is the Circuit Cache size per node.
	CacheCapacity int
	// ReplacePolicy is the CLRP replacement algorithm: "lru", "lfu", "random".
	ReplacePolicy string
	// WindowFlits bounds the end-to-end window of circuit transfers (max
	// unacknowledged flits). Zero models the paper's "deep delivery buffers":
	// the window never throttles.
	WindowFlits int
	// InitialBufFlits enables the endpoint message-buffer model: CLRP
	// allocates buffers of this size at circuit establishment and pays
	// ReallocPenalty cycles to grow them for longer messages; CARP sizes
	// buffers for its whole message set upfront. Zero disables the model.
	InitialBufFlits int
	// ReallocPenalty is the cycle cost of growing endpoint buffers.
	ReallocPenalty int64

	// ForceFirst and SinglePhase2Switch enable the CLRP simplifications of
	// paper section 3.1 (ablation experiment E9).
	ForceFirst         bool
	SinglePhase2Switch bool
	// MinCircuitFlits routes CLRP messages shorter than this by wormhole
	// directly — the hybrid length-threshold policy of experiment E14.
	// Zero disables the threshold.
	MinCircuitFlits int
	// NoSwitchSpread disables the initial-switch spreading heuristic
	// (experiment E18): all probes start at wave switch S1.
	NoSwitchSpread bool

	// FaultSchedule arms deterministic mid-run wave-channel faults (the
	// dynamic-fault model; the zero value schedules none). Contrast
	// Simulator.InjectFaults, which disables channels statically before the
	// run. See FaultScheduleConfig.
	FaultSchedule FaultScheduleConfig
	// ProbeRetryLimit, when positive, re-arms a fully failed circuit-setup
	// sequence up to this many times (deterministic backoff between tries)
	// before CLRP enters phase 3 / CARP falls back to wormhole — the
	// recovery path for transient faults. Zero keeps the paper's
	// single-sequence behaviour.
	ProbeRetryLimit int
	// RetryBackoffCycles is the base of the linear retry backoff: retry r
	// fires r*RetryBackoffCycles cycles after the failure (minimum 1).
	RetryBackoffCycles int64

	// Seed drives all randomness; equal seeds give bit-identical runs.
	Seed uint64

	// Workers was the cycle-engine worker count. Negative values are still
	// rejected by New.
	//
	// Deprecated: ignored, the engine is single-threaded; kept so existing
	// specs, snapshot headers and the benchmark module decode and compile.
	Workers int

	// WatchdogMaxAge bounds per-message delivery time in cycles (0 disables);
	// WatchdogStall bounds progress-free cycles with work in flight. Both are
	// the empirical deadlock/livelock oracle of the Theorem tests.
	WatchdogMaxAge int64
	WatchdogStall  int64
}

// DefaultConfig is the experiments' baseline: an 8x8 torus, CLRP, Duato
// adaptive wormhole routing with 3 VCs, k=2 wave switches at 4x clock, MB-2
// probes and 8-entry LRU caches.
func DefaultConfig() Config {
	prm := core.DefaultParams()
	return Config{
		Topology:       TopologyConfig{Kind: "torus", Radix: []int{8, 8}},
		Protocol:       string(protocol.CLRP),
		NumVCs:         prm.NumVCs,
		BufDepth:       prm.BufDepth,
		Routing:        prm.Routing,
		NumSwitches:    prm.NumSwitches,
		MaxMisroutes:   prm.MaxMisroutes,
		WaveClockMult:  prm.WaveClockMult,
		CacheCapacity:  prm.CacheCapacity,
		ReplacePolicy:  prm.ReplacePolicy,
		Seed:           1,
		WatchdogMaxAge: 1_000_000,
		WatchdogStall:  50_000,
	}
}

// coreParams lowers the public config to the fabric parameters.
func (c Config) coreParams() core.Params {
	return core.Params{
		NumVCs:          c.NumVCs,
		BufDepth:        c.BufDepth,
		CreditDelay:     c.CreditDelay,
		RouteDelay:      c.RouteDelay,
		RecoveryTimeout: c.RecoveryTimeout,
		Routing:         c.Routing,
		NumSwitches:     c.NumSwitches,
		MaxMisroutes:    c.MaxMisroutes,
		WaveClockMult:   c.WaveClockMult,
		CacheCapacity:   c.CacheCapacity,
		ReplacePolicy:   c.ReplacePolicy,
		WindowFlits:     c.WindowFlits,
		InitialBufFlits: c.InitialBufFlits,
		ReallocPenalty:  c.ReallocPenalty,
		Seed:            c.Seed,
	}
}
