package main

import (
	"fmt"
	"runtime"
	"time"
)

// runTraced measures one workload's layers and reports every per-layer
// metric. It alternates an untraced RunLoad with a traced replay of the same
// seed until the window is used up — the pair gives the tracing overhead and
// the proof that the replay is the same simulation — then runs the layer
// kernels. For the serve workload the first half of the window drives the
// HTTP loop with client-side spans and the second half replays the job's
// simulation.
func runTraced(o runOpts) (*result, *runInfo) {
	w := o.w
	in := &runInfo{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: 1, Samples: map[string][]float64{}}
	vals := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		vals[d.name] = 0 // a layer the workload never enters reports 0
	}

	setups, err := setupSamples(o, true)
	if err != nil {
		return failedResult(in, 0, err)
	}
	vals["topology.build_ms"] = median(column(setups, func(s setupSample) float64 { return s.TopologyBuildMs }))
	vals["routing.table_build_ms"] = median(column(setups, func(s setupSample) float64 { return s.TableBuildMs }))
	vals["routing.table_bytes"] = float64(setups[0].TableBytes)
	vals["wave.new_ms"] = median(column(setups, func(s setupSample) float64 { return s.WaveNewMs }))
	in.CalibBeforeNs = calibrate()

	var attempted int64
	simSeconds := o.seconds
	if w.serve {
		simSeconds = o.seconds / 2
		n, err := serveTraced(o, o.seconds-simSeconds, vals)
		attempted += n
		if err != nil {
			return failedResult(in, attempted, err)
		}
	}
	n, err := simTraced(o, in, simSeconds, vals)
	attempted += n
	if err != nil {
		return failedResult(in, attempted, err)
	}
	in.endCalib()
	vals["host.calib_ns"] = (in.CalibBeforeNs + in.CalibAfterNs) / 2

	if err := layerKernels(o, vals); err != nil {
		return failedResult(in, attempted, err)
	}
	return &result{Correct: true, Attempted: attempted, Metrics: withUnits(perLayer, vals)}, in
}

// simTraced runs (untraced, traced) pairs of the workload's simulation for
// `seconds` and fills the in-situ layer metrics.
func simTraced(o runOpts, in *runInfo, seconds float64, vals map[string]float64) (int64, error) {
	w := o.w
	_, meas := w.window(o.scale)
	var attempted int64
	var plain *repOut
	var traced *replayOut
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }

	t0 := time.Now()
	for traced == nil || time.Since(t0).Seconds() < seconds {
		runtime.GC()
		u, err := runRep(w, o.seed, o.scale, true)
		if err != nil {
			return attempted, err
		}
		attempted += u.stats.Protocol.Sent
		if err := checkRep(w, u.stats, u.res, meas, o.full() && !w.serve); err != nil {
			return attempted, err
		}
		runtime.GC()
		// Only the first repetition keeps sampled cycles in full.
		t, err := replayRep(w, o.seed, o.scale, traced == nil && o.traceOut != "")
		if err != nil {
			return attempted, err
		}
		attempted += t.stats.Protocol.Sent
		if t.stats != u.stats {
			return attempted, fmt.Errorf("%s: traced replay finished with different wave.Stats than RunLoad:\n traced   %+v\n untraced %+v",
				w.name, t.stats, u.stats)
		}
		if traced == nil {
			plain, traced = u, t
			if o.traceOut != "" {
				if err := t.tr.writeChrome(o.traceOut, w.name); err != nil {
					return attempted, err
				}
			}
		}

		wallNs := t.wallS * 1e9
		cycles := float64(t.injectCycles)
		tick, send, step, rec := t.agg[spTick], t.agg[spSend], t.agg[spStep], t.agg[spRecord]
		drain, sum := t.agg[spDrain], t.agg[spSummarize]
		add("traffic.tick_ns_per_cycle", float64(tick.self())/cycles)
		add("traffic.share", float64(tick.self())/wallNs)
		add("protocol.send_ns_per_msg", ratio(float64(send.total), float64(send.count)))
		add("protocol.share", float64(send.total)/wallNs)
		add("core.cycle_ns", float64(step.self())/cycles)
		add("core.share", float64(step.self()+drain.self())/wallNs)
		add("stats.record_ns_per_msg", ratio(float64(rec.total), float64(rec.count)))
		add("stats.summarize_ms", float64(sum.total)/1e6)
		add("stats.share", float64(rec.total+sum.total)/wallNs)
		add("wave.drain_ms", float64(drain.total)/1e6)
		add("snapshot.encode_ms", float64(t.agg[spSnapshotEncode].total)/1e6)
		add("snapshot.restore_ms", float64(t.agg[spSnapshotRestore].total)/1e6)
		add("trace.overhead_ratio", (u.cyclesPerS()-t.cyclesPerS())/u.cyclesPerS())

		kcycles := float64(u.stats.Cycle) / 1000
		add("wave.allocs_per_kcycle", float64(u.mem.allocs)/kcycles)
		add("wave.alloc_bytes_per_kcycle", float64(u.mem.bytes)/kcycles)
		add("wave.gc_count", float64(u.mem.gcs))
		add("wave.live_heap_mb", u.mem.liveHeapMB)
		add("wave.cpu_s", u.mem.cpuS)
	}
	for name, vs := range per {
		vals[name] = median(vs)
	}
	in.Reps = len(per["core.cycle_ns"])
	in.StatsDigest = statsDigest(traced.stats)
	in.Samples["trace.overhead_ratio"] = per["trace.overhead_ratio"]
	in.Samples["core.share"] = per["core.share"]

	// Simulated counts are the same in every repetition of one seed.
	st := traced.stats
	kcycles := float64(st.Cycle) / 1000
	launched := float64(st.Probes.Launched)
	pc := st.Protocol
	vals["snapshot.bytes"] = float64(traced.snapBytes)
	vals["engine.workers_selected"] = float64(plain.workers)
	vals["wormhole.flits_moved_per_cycle"] = float64(st.WHFlitsMoved) / float64(st.Cycle)
	vals["wormhole.active_port_fraction"] = traced.activePorts
	vals["pcs.probes_per_kcycle"] = launched / kcycles
	vals["pcs.backtracks_per_probe"] = ratio(float64(st.Probes.Backtracks), launched)
	vals["pcs.misroutes_per_probe"] = ratio(float64(st.Probes.Misroutes), launched)
	vals["pcs.setup_success_ratio"] = ratio(float64(st.Probes.Succeeded), launched)
	vals["pcs.teardowns_per_kcycle"] = float64(st.Probes.Teardowns) / kcycles
	vals["circuit.hit_ratio"] = st.Cache.HitRate()
	vals["circuit.evictions_per_kcycle"] = float64(st.Cache.Evictions) / kcycles
	vals["protocol.phase2_share"] = ratio(float64(pc.Phase2Entered), float64(pc.SetupsStarted))
	vals["protocol.phase3_share"] = ratio(float64(pc.Phase3Entered), float64(pc.SetupsStarted))
	vals["protocol.fallback_share"] = ratio(float64(pc.FallbackWormhole), float64(pc.Sent))
	vals["protocol.circuit_fraction"] = ratio(float64(pc.DeliveredCircuit), float64(pc.Sent))
	vals["protocol.setup_cycles_mean"] = ratio(float64(pc.SetupCyclesTotal), float64(pc.SetupsOK))
	vals["protocol.circuit_wait_cycles_mean"] = ratio(float64(pc.CircuitWaitCycles), float64(pc.CircuitSendsStarted))
	return attempted, nil
}

// serveTraced drives the HTTP closed loop and fills the server-side layer
// metrics from the client-side spans of each job.
func serveTraced(o runOpts, seconds float64, vals map[string]float64) (int64, error) {
	out, err := serveLoop(o, seconds)
	if err != nil {
		return int64(out.attempted), err
	}
	var submit, run, fetch, size []float64
	for _, j := range out.jobs {
		if j.repeat {
			continue
		}
		submit = append(submit, j.submit*1e3)
		run = append(run, j.run*1e3)
		fetch = append(fetch, j.fetch*1e3)
		size = append(size, float64(j.bytes))
	}
	vals["server.submit_ms_p50"] = median(submit)
	vals["server.run_ms_p50"] = median(run)
	vals["server.fetch_ms_p50"] = median(fetch)
	vals["server.job_cold_ms_p95"] = percentile(out.totals(false), 95)
	vals["server.result_bytes"] = median(size)
	vals["resultcache.hit_ms_p50"] = median(out.totals(true))
	vals["resultcache.hit_ratio"] = ratio(float64(out.hits), float64(out.hits+out.misses))
	vals["verify.certify_ms"], err = certifyKernel(o.w, o.seed)
	return int64(out.attempted), err
}

// layerKernels runs the standalone kernels at the workload's configuration.
func layerKernels(o runOpts, vals map[string]float64) error {
	w, sz := o.w, sizesFor(o.scale)
	var err error
	vals["routing.lookup_ns.flat"], vals["routing.lookup_ns.compressed"], vals["routing.lookup_ns.algorithmic"], err =
		routingKernels(w, o.seed, sz.lookups)
	if err != nil {
		return fmt.Errorf("%s: routing kernel: %w", w.name, err)
	}
	if vals["wormhole.cycle_ns"], err = wormholeKernel(w, o.seed, sz.whWarm, sz.whCycles); err != nil {
		return fmt.Errorf("%s: wormhole kernel: %w", w.name, err)
	}
	if vals["pcs.probes_per_kcycle"] > 0 {
		if vals["pcs.ns_per_probe"], err = pcsKernel(w, o.seed, sz.pcsCycle); err != nil {
			return fmt.Errorf("%s: pcs kernel: %w", w.name, err)
		}
	}
	vals["engine.event_ns"] = eventKernel(sz.events)
	vals["stats.series_add_ns"], vals["stats.percentile_ms"] = statsKernel(o.seed, sz.samples)
	return nil
}
