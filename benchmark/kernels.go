package main

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/flit"
	"repro/internal/pcs"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// Layer kernels time one layer's public functions in isolation, on inputs
// drawn from the workload's seed. They answer "what does this layer cost per
// unit of its own work" where the in-situ spans can only say "what share of a
// cycle is it".

// kernelSizes are the kernels' fixed amounts of work at full scale.
type kernelSizes struct {
	lookups  int   // routing lookups per representation
	whWarm   int64 // wormhole kernel cycles before timing
	whCycles int64 // wormhole kernel cycles timed
	pcsCycle int64 // pcs kernel cycles
	events   int   // event round trips
	samples  int   // Series.Add calls
}

func sizesFor(scale int64) kernelSizes {
	s := int(scale)
	return kernelSizes{
		lookups:  1_000_000 / s,
		whWarm:   2000 / scale,
		whCycles: 8000 / scale,
		pcsCycle: 20000 / scale,
		events:   1_000_000 / s,
		samples:  1_000_000 / s,
	}
}

// lookupKernel times fn.Candidates over seeded (here, dst) pairs and returns
// ns per lookup.
func lookupKernel(fn routing.Func, topo topology.Topology, seed uint64, n int) float64 {
	const batch = 1 << 14
	rng := sim.NewRNG(seed)
	var here, dst [batch]topology.Node
	hosts := topo.Hosts()
	for i := range here {
		here[i] = topology.Node(rng.Intn(hosts))
		dst[i] = topology.Node(rng.Intn(hosts))
		if dst[i] == here[i] {
			dst[i] = (dst[i] + 1) % topology.Node(hosts)
		}
	}
	out := make([]routing.Candidate, 0, 16)
	var sink int
	t0 := time.Now()
	for i := 0; i < n; i++ {
		out = fn.Candidates(here[i%batch], dst[i%batch], topology.Invalid, 0, out[:0])
		sink += len(out)
	}
	el := time.Since(t0)
	if sink == 0 {
		panic("routing: no candidates for any pair")
	}
	return float64(el.Nanoseconds()) / float64(n)
}

// routingKernels times each routing-table representation that exists for
// the workload's topology: ns per lookup, 0 for a representation that does
// not apply (flat above the node gate, compressed off k-ary n-cubes).
func routingKernels(w *workload, seed uint64, n int) (flat, compressed, algorithmic float64, err error) {
	cfg := w.config(seed)
	topo, err := cfg.Topology.Build()
	if err != nil {
		return 0, 0, 0, err
	}
	fn, err := routing.New(cfg.Routing, topo, cfg.NumVCs)
	if err != nil {
		return 0, 0, 0, err
	}
	algorithmic = lookupKernel(fn, topo, seed, n)
	if topo.Nodes() <= routing.DefaultTableMaxNodes {
		// The simulators built earlier in this process already paid for the
		// flat table; the shared cache hands back the same one.
		tbl, info := routing.SelectTableCached(fn, topo, routing.DefaultTableMaxNodes)
		if info.Mode == routing.TableFlat {
			flat = lookupKernel(tbl, topo, seed, n)
		}
	}
	if ct, ok := routing.BuildCompressed(fn, topo); ok {
		compressed = lookupKernel(ct, topo, seed, n)
	}
	return flat, compressed, algorithmic, nil
}

// kmsg is one message of a pre-generated traffic stream.
type kmsg struct {
	at       int64
	src, dst topology.Node
	length   int
}

// genStream draws the workload's first `cycles` cycles of traffic up front,
// so a kernel's timed loop holds nothing but the layer under test.
func genStream(w *workload, topo topology.Topology, cfgSeed uint64, cycles int64) ([]kmsg, error) {
	gen, err := buildGenerator(w, topo, cfgSeed)
	if err != nil {
		return nil, err
	}
	var out []kmsg
	for now := int64(0); now < cycles; now++ {
		gen.Tick(func(src, dst topology.Node, length int) {
			out = append(out, kmsg{at: now, src: src, dst: dst, length: length})
		})
	}
	return out, nil
}

// wormholeKernel runs a standalone wormhole engine (Inject + Cycle) on the
// messages the workload's protocol sends by wormhole as a matter of policy:
// all of them under the wormhole protocol, those below MinCircuitFlits under
// CLRP (none when the threshold is 0, which leaves the engine's idle cycle
// cost). Dynamic fallbacks are not reproduced. Returns ns per cycle.
func wormholeKernel(w *workload, seed uint64, warm, cycles int64) (float64, error) {
	cfg := w.config(seed)
	topo, err := cfg.Topology.Build()
	if err != nil {
		return 0, err
	}
	fn, err := routing.New(cfg.Routing, topo, cfg.NumVCs)
	if err != nil {
		return 0, err
	}
	fn, _ = routing.SelectTableCached(fn, topo, routing.DefaultTableMaxNodes)
	eng, err := wormhole.New(topo, fn, wormhole.Params{
		NumVCs: cfg.NumVCs, BufDepth: cfg.BufDepth,
		CreditDelay: cfg.CreditDelay, RouteDelay: cfg.RouteDelay,
	}, wormhole.Hooks{})
	if err != nil {
		return 0, err
	}
	stream, err := genStream(w, topo, cfg.Seed, warm+cycles)
	if err != nil {
		return 0, err
	}
	var next flit.MsgID
	var t0 time.Time
	for now := int64(0); now < warm+cycles; now++ {
		if now == warm {
			t0 = time.Now()
		}
		for ; len(stream) > 0 && stream[0].at == now; stream = stream[1:] {
			m := stream[0]
			if cfg.Protocol != "wormhole" && m.length >= cfg.MinCircuitFlits {
				continue
			}
			next++
			eng.Inject(flit.Message{ID: next, Src: int(m.src), Dst: int(m.dst), Len: m.length, InjectTime: now})
		}
		eng.Cycle(now)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(cycles), nil
}

// idleHost is the pcs.Host of the standalone kernel: there are no circuit
// caches to consult, so Force-phase release requests find nothing.
type idleHost struct{}

func (idleHost) RequestLocalRelease(topology.Node, func(pcs.Channel) bool) (pcs.Channel, bool) {
	return pcs.Channel{}, false
}
func (idleHost) RequestRemoteRelease(circuit.ID) {}
func (idleHost) Progress()                       {}

// pcsKernel runs a standalone PCS engine: one probe per message of the
// workload's (src, dst) stream, the circuit torn down as soon as it is
// established. Returns host ns spent in the engine per probe launched.
func pcsKernel(w *workload, seed uint64, cycles int64) (float64, error) {
	cfg := w.config(seed)
	topo, err := cfg.Topology.Build()
	if err != nil {
		return 0, err
	}
	eng, err := pcs.New(topo, pcs.Params{NumSwitches: cfg.NumSwitches, MaxMisroutes: cfg.MaxMisroutes}, idleHost{})
	if err != nil {
		return 0, err
	}
	stream, err := genStream(w, topo, cfg.Seed, cycles)
	if err != nil {
		return 0, err
	}
	var established []circuit.ID
	eng.SetProbeDone(func(_, _ topology.Node, _ int, _ bool, _ int64, res pcs.SetupResult) {
		if res.OK {
			established = append(established, res.Circuit)
		}
	})
	t0 := time.Now()
	// Run past the last launch until every probe and teardown has landed
	// (bounded, so a wedged engine fails the kernel instead of hanging it).
	for now := int64(0); now < cycles || (!eng.Idle() && now < 4*cycles); now++ {
		for ; len(stream) > 0 && stream[0].at == now; stream = stream[1:] {
			if m := stream[0]; m.src != m.dst {
				eng.LaunchProbeTagged(m.src, m.dst, int(m.src+m.dst)%cfg.NumSwitches, false, 0)
			}
		}
		eng.Cycle(now)
		for _, id := range established {
			eng.Teardown(id, nil)
		}
		established = established[:0]
	}
	el := time.Since(t0)
	if eng.Ctr.ProbesLaunched == 0 {
		return 0, fmt.Errorf("%s: pcs kernel launched no probe", w.name)
	}
	return float64(el.Nanoseconds()) / float64(eng.Ctr.ProbesLaunched), nil
}

// eventKernel times one ScheduleKind + PopDue round trip on the fabric's
// event store, 64 events pending at a time. Returns ns per event.
func eventKernel(n int) float64 {
	const pending = 64
	ev := engine.NewShardedEvents(1)
	var popped int
	t0 := time.Now()
	for now := int64(0); popped < n; now++ {
		ev.ScheduleKind(0, now+pending, 1, [engine.NumEventArgs]int64{now})
		popped += len(ev.PopDue(now))
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(popped)
}

// statsKernel times stats.Series: ns per Add over n seeded samples, then ms
// for the first Percentile call (which sorts).
func statsKernel(seed uint64, n int) (addNs, percentileMs float64) {
	var s stats.Series
	t0 := time.Now()
	for i := 0; i < n; i++ {
		// A multiplicative hash of (seed, i): unordered like latencies, and
		// cheap enough not to show up beside Add.
		s.Add(float64(1 + (uint32(i)+uint32(seed))*2654435761>>20))
	}
	addNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	t1 := time.Now()
	p := s.Percentile(99)
	percentileMs = time.Since(t1).Seconds() * 1e3
	if p <= 0 {
		panic("stats: p99 of positive samples is not positive")
	}
	return addNs, percentileMs
}

// calibrate times a fixed integer spin loop: a yardstick for how fast this
// host is running right now, taken before and after each measurement.
func calibrate() float64 {
	const iters = 20_000_000
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	el := time.Since(t0)
	if x == 0 {
		panic("xorshift reached 0")
	}
	return float64(el.Nanoseconds()) / iters
}
