package wave

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/events"
	"repro/internal/flit"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// MsgID identifies a message accepted by Send.
type MsgID = flit.MsgID

// Delivery describes one completed message.
type Delivery struct {
	ID         MsgID
	Src, Dst   int
	Len        int
	Injected   int64
	Delivered  int64
	ViaCircuit bool
}

// Latency returns the end-to-end latency in cycles.
func (d Delivery) Latency() int64 { return d.Delivered - d.Injected }

// Simulator is one configured network plus protocol stack.
type Simulator struct {
	cfg  Config
	topo topology.Topology
	mgr  *protocol.Manager
	wd   sim.Watchdog
	now  int64

	onDelivered func(Delivery)

	// load is the resumable state of an in-progress RunLoad; it survives a
	// Snapshot/Restore round trip so a checkpointed load run can continue
	// via ResumeLoad.
	load *loadRun

	intervalEvery int64
	intervalFn    func(now int64)
}

// New builds a simulator from the configuration.
func New(cfg Config) (*Simulator, error) {
	return newSimulator(cfg, true)
}

// newSimulator is New with the fault-schedule installation optional:
// Restore skips it, because the pending fault events of a snapshotted run
// ride the serialised event queue.
func newSimulator(cfg Config, installFaults bool) (*Simulator, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("wave: Workers must be >= 0 (the value is otherwise ignored), got %d", cfg.Workers)
	}
	topo, err := cfg.Topology.Build()
	if err != nil {
		return nil, err
	}
	kind, err := protocol.ParseKind(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, topo: topo}
	s.wd = sim.Watchdog{MaxAge: cfg.WatchdogMaxAge, StallWindow: cfg.WatchdogStall}
	opt := protocol.Options{
		ForceFirst:         cfg.ForceFirst,
		SinglePhase2Switch: cfg.SinglePhase2Switch,
		MinCircuitFlits:    cfg.MinCircuitFlits,
		NoSwitchSpread:     cfg.NoSwitchSpread,
		ProbeRetryLimit:    cfg.ProbeRetryLimit,
		RetryBackoffCycles: cfg.RetryBackoffCycles,
	}
	s.mgr, err = protocol.New(topo, cfg.coreParams(), kind, opt, protocol.Hooks{
		Delivered: func(m flit.Message, now int64, viaCircuit bool) {
			if s.load != nil {
				s.load.run.Record(m.InjectTime, now, m.Len, viaCircuit)
			}
			if s.onDelivered != nil {
				s.onDelivered(Delivery{
					ID: m.ID, Src: m.Src, Dst: m.Dst, Len: m.Len,
					Injected: m.InjectTime, Delivered: now, ViaCircuit: viaCircuit,
				})
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if installFaults {
		if err := s.installFaultSchedule(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Topology exposes the network shape.
func (s *Simulator) Topology() topology.Topology { return s.topo }

// Nodes returns the node count.
func (s *Simulator) Nodes() int { return s.topo.Nodes() }

// Hosts returns the processor-bearing node count. Traffic originates and
// terminates only at hosts; on indirect topologies (fat trees) this is
// smaller than Nodes.
func (s *Simulator) Hosts() int { return s.topo.Hosts() }

// Neighbors returns the nodes directly linked to n, in port order (on cubes
// that is (dimension, direction) order) — a convenience for writing workload
// programs.
func (s *Simulator) Neighbors(n int) []int {
	var out []int
	base := s.topo.SlotBase(topology.Node(n))
	for _, to := range s.topo.Links().To[base : base+s.topo.OutDegree(topology.Node(n))] {
		if to >= 0 {
			out = append(out, int(to))
		}
	}
	return out
}

// Distance returns the minimal hop count between two nodes.
func (s *Simulator) Distance(a, b int) int {
	return s.topo.Distance(topology.Node(a), topology.Node(b))
}

// Now returns the current cycle.
func (s *Simulator) Now() int64 { return s.now }

// InFlight returns the number of undelivered messages.
func (s *Simulator) InFlight() int { return s.mgr.InFlight() }

// OnDelivered registers the delivery callback (replacing any previous one).
func (s *Simulator) OnDelivered(fn func(Delivery)) { s.onDelivered = fn }

// Send accepts a message for transmission now. wantCircuit is honoured by
// CARP only (see the paper, section 3.2); CLRP always consults its circuit
// cache and wormhole never does.
func (s *Simulator) Send(src, dst, lenFlits int, wantCircuit bool) MsgID {
	return s.mgr.Send(topology.Node(src), topology.Node(dst), lenFlits, s.now, wantCircuit)
}

// OpenCircuit issues the CARP set-up instruction (panics on other protocols).
func (s *Simulator) OpenCircuit(src, dst int) {
	s.mgr.OpenCircuit(topology.Node(src), topology.Node(dst))
}

// CloseCircuit issues the CARP tear-down instruction.
func (s *Simulator) CloseCircuit(src, dst int) {
	s.mgr.CloseCircuit(topology.Node(src), topology.Node(dst))
}

// Step advances one cycle and runs the deadlock/livelock watchdog.
func (s *Simulator) Step() error {
	moved := s.mgr.Cycle(s.now)
	err := s.wd.Check(s.now, moved, s.mgr.OldestAge(s.now), s.mgr.InFlight())
	s.now++
	return err
}

// OnInterval registers fn to be called whenever now%every == 0 during the
// run loops (Run, Drain, RunLoad, RunClosedLoop, RunProgram and their
// Context variants). The hook observes — it must not Send or Step — and it
// has no effect on simulation state, so hooked and unhooked runs stay
// bit-identical. every <= 0 or a nil fn clears the hook.
func (s *Simulator) OnInterval(every int64, fn func(now int64)) {
	if every <= 0 || fn == nil {
		s.intervalEvery, s.intervalFn = 0, nil
		return
	}
	s.intervalEvery, s.intervalFn = every, fn
}

// stepCtx advances one cycle after checking for cancellation, then fires
// the interval hook. Every run loop advances through here, so a cancelled
// run stops on an inter-cycle boundary with the simulator state consistent
// (and inspectable) rather than mid-cycle. The check is a non-blocking
// receive on ctx.Done(), which takes no lock (ctx.Err() does).
func (s *Simulator) stepCtx(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	if err := s.Step(); err != nil {
		return err
	}
	if s.intervalFn != nil && s.now%s.intervalEvery == 0 {
		s.intervalFn(s.now)
	}
	return nil
}

// Run advances `cycles` cycles.
func (s *Simulator) Run(cycles int64) error {
	return s.RunContext(context.Background(), cycles)
}

// RunContext advances `cycles` cycles, stopping early with the context's
// error when ctx is cancelled. The check runs between cycles, so a
// cancelled run never leaves the fabric mid-cycle.
func (s *Simulator) RunContext(ctx context.Context, cycles int64) error {
	for i := int64(0); i < cycles; i++ {
		if err := s.stepCtx(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Drain runs until no messages are in flight, up to maxCycles additional
// cycles. It returns an error on watchdog trip or timeout.
func (s *Simulator) Drain(maxCycles int64) error {
	return s.DrainContext(context.Background(), maxCycles)
}

// DrainContext is Drain with between-cycle cancellation. It steps cycle by
// cycle, so the watchdog checks every drained cycle.
func (s *Simulator) DrainContext(ctx context.Context, maxCycles int64) error {
	deadline := s.now + maxCycles
	for s.mgr.InFlight() > 0 {
		if s.now >= deadline {
			return fmt.Errorf("wave: %d messages still in flight after %d cycles", s.mgr.InFlight(), maxCycles)
		}
		if err := s.stepCtx(ctx); err != nil {
			return err
		}
	}
	return nil
}

// EnginePorts returns the wormhole engine's (active, total) input-port
// counts: the instrumentation behind the bench harness's idle-port-fraction
// metric. Active is 0 on a full-scan oracle run.
func (s *Simulator) EnginePorts() (active, total int) {
	return s.mgr.Fab.WH.ActivePorts(), s.mgr.Fab.WH.NumPorts()
}

// EngineWorkers returns 1.
//
// Deprecated: the engine is single-threaded; kept so the benchmark module
// compiles.
func (s *Simulator) EngineWorkers() int { return 1 }

// Counters returns a snapshot of the protocol counters.
func (s *Simulator) Counters() protocol.Counters { return s.mgr.Ctr }

// ProbeCounters returns a snapshot of the PCS control-unit counters.
func (s *Simulator) ProbeCounters() ProbeCounters {
	c := s.mgr.Fab.PCS.Ctr
	return ProbeCounters{
		Launched:          c.ProbesLaunched,
		Succeeded:         c.ProbesSucceeded,
		Failed:            c.ProbesFailed,
		Misroutes:         c.Misroutes,
		Backtracks:        c.Backtracks,
		ForceWaits:        c.ForceWaits,
		ReleasesSent:      c.ReleasesSent,
		ReleasesDiscarded: c.ReleasesDiscarded,
		Teardowns:         c.Teardowns,
		FaultsInjected:    c.FaultsInjected,
		FaultRepairs:      c.FaultRepairs,
		FaultCircuitsTorn: c.FaultCircuitsTorn,
		FaultProbesKilled: c.FaultProbesKilled,
	}
}

// ProbeCounters summarises the PCS routing control unit's activity.
type ProbeCounters struct {
	Launched, Succeeded, Failed       int64
	Misroutes, Backtracks, ForceWaits int64
	ReleasesSent, ReleasesDiscarded   int64
	Teardowns                         int64
	// Dynamic-fault recovery accounting (Config.FaultSchedule).
	FaultsInjected, FaultRepairs         int64
	FaultCircuitsTorn, FaultProbesKilled int64
}

// CacheStats aggregates circuit-cache behaviour over all nodes.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// HitRate returns hits / (hits + misses), or 0 with no lookups.
func (c CacheStats) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// CacheStats sums the per-node circuit cache counters.
func (s *Simulator) CacheStats() CacheStats {
	var cs CacheStats
	for n := 0; n < s.topo.Nodes(); n++ {
		c := s.mgr.Fab.Cache(topology.Node(n))
		cs.Hits += c.Hits
		cs.Misses += c.Misses
		cs.Evictions += c.Evictions
	}
	return cs
}

// CircuitInfo describes one established circuit (a Figure 5 cache entry plus
// its path length from the PCS registry).
type CircuitInfo struct {
	Src, Dst int
	// Switch is the wave switch index (0-based; the paper's S_{Switch+1}).
	Switch int
	// Hops is the circuit's path length.
	Hops int
	// InUse mirrors the Figure 5 In-use bit.
	InUse bool
	// UseCount is the Replace-field message count.
	UseCount int64
}

// Circuits returns every established circuit, ordered by (source,
// destination) — a deterministic snapshot of the network's "cache of
// circuits".
func (s *Simulator) Circuits() []CircuitInfo {
	var out []CircuitInfo
	for n := 0; n < s.topo.Nodes(); n++ {
		entries := s.mgr.Fab.Cache(topology.Node(n)).Entries()
		sort.Slice(entries, func(i, j int) bool { return entries[i].Dest < entries[j].Dest })
		for _, e := range entries {
			if !e.AckReturned() {
				continue
			}
			info := CircuitInfo{
				Src: n, Dst: int(e.Dest), Switch: e.Switch,
				InUse: e.InUse, UseCount: e.UseCount,
			}
			if c, ok := s.mgr.Fab.PCS.CircuitByID(e.ID); ok {
				info.Hops = len(c.Path)
			}
			out = append(out, info)
		}
	}
	return out
}

// EnableEventLog turns on structured protocol-event recording, retaining the
// last `capacity` events. Call before traffic starts.
func (s *Simulator) EnableEventLog(capacity int) {
	s.mgr.Events = events.NewLog(capacity)
}

// EventTotals returns (total events recorded, retained) — zero when logging
// is off.
func (s *Simulator) EventTotals() (total int64, retained int) {
	if s.mgr.Events == nil {
		return 0, 0
	}
	return s.mgr.Events.Total(), len(s.mgr.Events.Events())
}

// RenderEvents writes the retained protocol events (oldest first) to w,
// optionally filtered to one kind name ("" = all). It returns the number of
// lines written. Kind names match internal/events: send, deliver-wh,
// deliver-circ, setup-start, setup-ok, setup-fail, phase2, circuit-freed,
// fallback.
func (s *Simulator) RenderEvents(w io.Writer, kindName string) (int, error) {
	if s.mgr.Events == nil {
		return 0, fmt.Errorf("wave: event log not enabled")
	}
	var filter func(events.Event) bool
	if kindName != "" {
		filter = func(e events.Event) bool { return e.Kind.String() == kindName }
	}
	return s.mgr.Events.Render(w, filter)
}

// LinkLoad reports one physical link's traffic totals.
type LinkLoad struct {
	From, To int
	Dim      int
	// WormholeFlits crossed the link through switch S0; WaveFlits through an
	// established circuit on one of the wave switches.
	WormholeFlits int64
	WaveFlits     int64
}

// LinkLoads returns per-link utilization for every existing physical link,
// in link-ID order — the data behind wavesim's utilization map.
func (s *Simulator) LinkLoads() []LinkLoad {
	var out []LinkLoad
	for id := 0; id < s.topo.NumLinkSlots(); id++ {
		l, ok := s.topo.LinkByID(topology.LinkID(id))
		if !ok {
			continue
		}
		out = append(out, LinkLoad{
			From: int(l.From), To: int(l.To), Dim: l.Dim,
			WormholeFlits: s.mgr.Fab.WH.LinkFlits[id],
			WaveFlits:     s.mgr.Fab.WaveLinkFlits[id],
		})
	}
	return out
}

// InjectFaults marks `count` random wave channels faulty (experiment E8).
// It must be called before traffic starts.
func (s *Simulator) InjectFaults(count int, seed uint64) error {
	plan, err := randomFaults(s.topo, s.cfg.NumSwitches, count, seed)
	if err != nil {
		return err
	}
	plan.Apply(s.mgr.Fab.PCS)
	return nil
}

// RunProgram parses and plays a CARP directive program (see internal/trace
// format: "@cycle open|send|close src dst [flits [wormhole]]"), then drains.
// On protocols other than carp the open/close directives are ignored — the
// same program then serves as a workload replay against the baselines, with
// sends following the active protocol's own policy.
func (s *Simulator) RunProgram(r io.Reader, drainBudget int64) error {
	return s.RunProgramContext(context.Background(), r, drainBudget)
}

// RunProgramContext is RunProgram with between-cycle cancellation.
func (s *Simulator) RunProgramContext(ctx context.Context, r io.Reader, drainBudget int64) error {
	prog, err := trace.Parse(r)
	if err != nil {
		return err
	}
	if err := prog.Validate(s.topo.Hosts()); err != nil {
		return err
	}
	carp := s.cfg.Protocol == "carp"
	player := trace.NewPlayer(prog)
	for !player.Done() {
		player.Tick(s.now, func(d trace.Directive) {
			switch d.Op {
			case trace.Open:
				if carp {
					s.OpenCircuit(d.Src, d.Dst)
				}
			case trace.Close:
				if carp {
					s.CloseCircuit(d.Src, d.Dst)
				}
			case trace.Send:
				s.Send(d.Src, d.Dst, d.Flits, !d.Wormhole)
			}
		})
		if err := s.stepCtx(ctx); err != nil {
			return err
		}
	}
	return s.DrainContext(ctx, drainBudget)
}
