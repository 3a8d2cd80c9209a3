package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/wave"
)

// repOut is one config -> result repetition through the program's own
// RunLoad, timed from outside with tracing off.
type repOut struct {
	stats wave.Stats
	res   *wave.Result
	// runS is the wall time of RunLoad (warm-up + measure + drain + result);
	// totalS adds wave.New, Stats and Close: what a wavesim user waits for
	// after flag parsing.
	runS, totalS float64
	workers      int
	mem          memUse
}

// memUse is the Go heap and CPU cost of one RunLoad.
type memUse struct {
	allocs, bytes uint64
	gcs           uint32
	liveHeapMB    float64
	cpuS          float64
}

func (r *repOut) cyclesPerS() float64 { return float64(r.stats.Cycle) / r.runS }

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is this process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runRep builds a simulator for the workload and runs its RunLoad once.
// withMem also samples runtime.MemStats and CPU time around RunLoad; it is
// used in the traced pass only, so the end-to-end timings never pay for it.
func runRep(w *workload, seed uint64, scale int64, withMem bool) (*repOut, error) {
	warm, meas := w.window(scale)
	t0 := time.Now()
	sim, err := wave.New(w.config(seed))
	if err != nil {
		return nil, fmt.Errorf("%s: wave.New: %w", w.name, err)
	}
	defer sim.Close()

	var m0, m1 runtime.MemStats
	var cpu0 float64
	if withMem {
		runtime.ReadMemStats(&m0)
		cpu0 = cpuSeconds()
	}
	tr := time.Now()
	res, err := sim.RunLoad(w.load, warm, meas)
	out := &repOut{runS: time.Since(tr).Seconds()}
	if err != nil {
		return nil, fmt.Errorf("%s: RunLoad: %w", w.name, err)
	}
	if withMem {
		out.mem.cpuS = cpuSeconds() - cpu0
		runtime.ReadMemStats(&m1)
		out.mem.allocs = m1.Mallocs - m0.Mallocs
		out.mem.bytes = m1.TotalAlloc - m0.TotalAlloc
		out.mem.gcs = m1.NumGC - m0.NumGC
		runtime.GC()
		runtime.ReadMemStats(&m1)
		out.mem.liveHeapMB = float64(m1.HeapAlloc) / (1 << 20)
	}
	out.res = res
	out.stats = sim.Stats()
	out.workers = sim.EngineWorkers()
	sim.Close()
	out.totalS = time.Since(t0).Seconds()
	return out, nil
}

// statsDigest is the SHA-256 of the canonical JSON of wave.Stats. It is
// printed and stored as information only: runs of one seed must agree with
// each other, but no digest is compared to a committed value, so a PR that
// changes the model is not blocked by the benchmark.
func statsDigest(st wave.Stats) string {
	raw, err := json.Marshal(st)
	if err != nil {
		panic(err) // wave.Stats is plain integers; cannot fail
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// A sub-saturation run accepts what it is offered. Result.Throughput divides
// by the span from first injection to last delivery, so it under-reads by
// (drain tail / window), a few per cent that varies with the seed: the
// committed baseline shows >= 0.97 on every workload, the run-time gate sits
// below the seed-to-seed scatter (0.966 is the lowest of 22 seeds seen on
// hybrid_32x32). Just past the knee the ratio reads 0.93 (clrp_churn at load
// 0.16) and falls to 0.6 and below beyond it.
const (
	minAccepted = 0.94
	maxAccepted = 1.06
)

// checkRep applies the per-run correctness checks. subSaturation adds the
// two checks that the load point really is below the knee; they need the
// full-length window (the drain tail biases Result.Throughput on short ones)
// and are skipped at -quick scale.
func checkRep(w *workload, st wave.Stats, res *wave.Result, measure int64, subSaturation bool) error {
	c := st.Protocol
	if c.Sent == 0 {
		return fmt.Errorf("%s: no message was injected", w.name)
	}
	if c.Sent != c.DeliveredWormhole+c.DeliveredCircuit {
		return fmt.Errorf("%s: sent %d != delivered %d wormhole + %d circuit",
			w.name, c.Sent, c.DeliveredWormhole, c.DeliveredCircuit)
	}
	if !subSaturation {
		return nil
	}
	if r := res.Throughput / w.load.Load; r < minAccepted || r > maxAccepted {
		return fmt.Errorf("%s: accepted/offered load %.4f outside [%g, %g]: not a sub-saturation point", w.name, r, minAccepted, maxAccepted)
	}
	if lim := float64(measure) / 50; res.AvgLatency > lim {
		return fmt.Errorf("%s: mean latency %.1f cycles exceeds measure/50 = %.0f", w.name, res.AvgLatency, lim)
	}
	return nil
}

// replayOut is one traced repetition: RunLoad's loop replayed from outside
// through the layers' public functions with a span around each call.
type replayOut struct {
	stats        wave.Stats
	wallS        float64 // inject loop + drain + summarize, as RunLoad spans
	injectCycles int64
	activePorts  float64 // mean active/total wormhole input ports
	snapBytes    int
	summarySum   float64 // keeps the summarize span's results alive
	agg          [numSpans]spanAgg
	tr           *tracer
}

func (r *replayOut) cyclesPerS() float64 { return float64(r.stats.Cycle) / r.wallS }

// buildGenerator mirrors wave.Simulator.buildGenerator through the traffic
// package's public constructors, stream seed Config.Seed+1 included.
func buildGenerator(w *workload, topo topology.Topology, cfgSeed uint64) (*traffic.Generator, error) {
	pat, err := traffic.NewPattern(w.load.Pattern, topo)
	if err != nil {
		return nil, err
	}
	if w.load.WorkingSet > 0 {
		pat, err = traffic.NewLocality(pat, topo.Hosts(), w.load.WorkingSet, w.load.Reuse, w.load.RedrawPeriod)
		if err != nil {
			return nil, err
		}
	}
	var dist traffic.LengthDist = traffic.Fixed{L: w.load.FixedLength}
	if w.load.FixedLength == 0 {
		dist = traffic.Bimodal{Short: w.load.BimodalShort, Long: w.load.BimodalLong, PLong: w.load.BimodalPLong}
	}
	return traffic.NewGenerator(pat, dist, w.load.Load, topo.Hosts(), cfgSeed+1)
}

// drainBudget is RunLoad's drain allowance.
func drainBudget(warm, meas int64, topo topology.Topology) int64 {
	return max((warm+meas)*20, int64(topo.Diameter())*256)
}

// replayRep runs the workload once with tracing on. Its final wave.Stats
// must equal the untraced RunLoad's for the same seed; the caller checks.
// It also snapshots the simulator at the end of injection, restores the
// snapshot into a second simulator and requires both to drain to equal Stats.
// keepFull also stores every 1000th cycle's spans in full for the Chrome trace.
func replayRep(w *workload, seed uint64, scale int64, keepFull bool) (*replayOut, error) {
	warm, meas := w.window(scale)
	cfg := w.config(seed)
	sim, err := wave.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: wave.New: %w", w.name, err)
	}
	defer sim.Close()
	topo := sim.Topology()
	gen, err := buildGenerator(w, topo, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("%s: traffic generator: %w", w.name, err)
	}

	tr := newTracer()
	tr.sampling = keepFull
	run := stats.NewRun(warm)
	sim.OnDelivered(func(d wave.Delivery) {
		tr.begin(spRecord)
		run.Record(d.Injected, d.Delivered, d.Len, d.ViaCircuit)
		tr.end()
	})
	wantCircuit := w.load.WantCircuit
	send := func(src, dst topology.Node, length int) {
		tr.begin(spSend)
		sim.Send(int(src), int(dst), length, wantCircuit)
		tr.end()
	}

	out := &replayOut{tr: tr}
	var portSamples int
	end := warm + meas
	t0 := time.Now()
	// One clock read closes a span and opens the next: a cycle costs two
	// reads, plus two per message sent or delivered.
	now := tr.now()
	for sim.Now() < end {
		c := sim.Now()
		tr.startCycle(c)
		tr.beginAt(spTick, now)
		gen.Tick(send)
		now = tr.now()
		tr.endAt(now)
		tr.beginAt(spStep, now)
		err := sim.Step()
		now = tr.now()
		tr.endAt(now)
		if err != nil {
			return nil, fmt.Errorf("%s: traced Step at cycle %d: %w", w.name, c, err)
		}
		if c%100 == 0 {
			if active, total := sim.EnginePorts(); total > 0 {
				out.activePorts += float64(active) / float64(total)
				portSamples++
			}
		}
	}
	wall := time.Since(t0)
	out.injectCycles = sim.Now()
	out.activePorts = ratio(out.activePorts, float64(portSamples))

	// Checkpoint between injection and drain; outside the timed run.
	tr.startCycle(sim.Now())
	var buf bytes.Buffer
	tr.begin(spSnapshotEncode)
	err = sim.Snapshot(&buf)
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("%s: Snapshot: %w", w.name, err)
	}
	out.snapBytes = buf.Len()
	tr.begin(spSnapshotRestore)
	restored, err := wave.Restore(bytes.NewReader(buf.Bytes()))
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("%s: Restore: %w", w.name, err)
	}
	defer restored.Close()

	budget := drainBudget(warm, meas, topo)
	t1 := time.Now()
	tr.begin(spDrain)
	err = sim.Drain(budget)
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("%s: traced Drain: %w", w.name, err)
	}
	tr.begin(spSummarize)
	lat := &run.Latency
	out.summarySum = lat.Mean() + lat.Percentile(50) + lat.Percentile(95) + lat.Percentile(99) +
		lat.Max() + run.Throughput(topo.Hosts())
	tr.end()
	wall += time.Since(t1)

	out.wallS = wall.Seconds()
	out.stats = sim.Stats()
	out.agg = tr.agg

	if err := restored.Drain(budget); err != nil {
		return nil, fmt.Errorf("%s: restored Drain: %w", w.name, err)
	}
	if rs := restored.Stats(); rs != out.stats {
		return nil, fmt.Errorf("%s: restored run finished with different wave.Stats:\n restored %+v\n original %+v", w.name, rs, out.stats)
	}
	return out, nil
}
