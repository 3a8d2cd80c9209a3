package server

import (
	"context"
	"encoding/json"
	"errors"
	"time"

	"repro/internal/stats"
	"repro/wave"
)

// execute runs one claimed job on a worker goroutine: lifecycle
// transitions, deadline, progress publication and terminal classification.
func (s *Server) execute(j *Job) {
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	// However the job ends — result, error, or cancelled-before-start — its
	// single-flight entry must settle so followers terminate too.
	defer s.completeFlight(j)
	if !j.start(cancel, time.Now()) {
		return // cancelled while queued; requestCancel already settled it
	}
	ctx := base
	timeout := s.cfg.DefaultTimeout
	if j.Spec.TimeoutSec > 0 {
		timeout = time.Duration(j.Spec.TimeoutSec * float64(time.Second))
	}
	if timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(base, timeout)
		defer tcancel()
	}
	s.metrics.running.Add(1)
	defer s.metrics.running.Add(-1)

	res, err := s.runSim(ctx, j)
	now := time.Now()
	switch {
	case err == nil:
		raw, merr := json.Marshal(res)
		if merr != nil {
			j.finish(StateFailed, nil, "encode result: "+merr.Error(), now)
			s.metrics.failed.Add(1)
			return
		}
		j.finish(StateDone, raw, "", now)
		s.metrics.completed.Add(1)
	case errors.Is(err, context.Canceled):
		j.finish(StateCancelled, nil, "cancelled", now)
		s.metrics.cancelled.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		j.finish(StateFailed, nil, "deadline exceeded after "+timeout.String(), now)
		s.metrics.failed.Add(1)
	default:
		j.finish(StateFailed, nil, err.Error(), now)
		s.metrics.failed.Add(1)
	}
}

// runSim executes a load or closed job with periodic progress snapshots.
// The returned Result is pure simulation output (see Result); errors are
// classified by execute.
func (s *Server) runSim(ctx context.Context, j *Job) (*Result, error) {
	sp := j.Spec
	cfg := sp.simConfig()
	sim, err := wave.New(cfg)
	if err != nil {
		return nil, err
	}
	if sp.Faults > 0 {
		if err := sim.InjectFaults(sp.Faults, cfg.Seed+99); err != nil {
			return nil, err
		}
	}

	// Progress recording. The warm-up window only applies to load jobs;
	// closed jobs measure from cycle 0.
	var warmupEnd int64
	if sp.Kind == KindLoad {
		warmupEnd = sp.Warmup
	}
	rec := stats.NewRun(warmupEnd)
	nodes := sim.Nodes()
	sim.OnDelivered(func(d wave.Delivery) {
		rec.Record(d.Injected, d.Delivered, d.Len, d.ViaCircuit)
	})
	var lastCycle int64
	lastWall := time.Now()
	sim.OnInterval(sp.IntervalCycles, func(now int64) {
		wall := time.Now()
		rate := 0.0
		if dt := wall.Sub(lastWall).Seconds(); dt > 0 {
			rate = float64(now-lastCycle) / dt
		}
		s.metrics.cycles.Add(now - lastCycle)
		lastCycle, lastWall = now, wall
		j.setRate(rate)
		snap := rec.Snapshot(nodes)
		j.publish(Progress{
			Type: "snapshot", Cycle: now, InFlight: sim.InFlight(),
			CyclesPerSec: rate, Stats: &snap,
		})
	})

	res := &Result{Kind: sp.Kind}
	switch sp.Kind {
	case KindLoad:
		r, err := sim.RunLoadContext(ctx, *sp.Load, sp.Warmup, sp.Measure)
		if err != nil {
			return nil, err
		}
		res.Load = r
	case KindClosed:
		r, err := sim.RunClosedLoopContext(ctx, *sp.Closed, sp.MaxCycles)
		if err != nil {
			return nil, err
		}
		res.Closed = r
	}
	st := sim.Stats()
	s.metrics.faultsInjected.Add(st.Probes.FaultsInjected)
	s.metrics.circuitsTorn.Add(st.Probes.FaultCircuitsTorn)
	s.metrics.setupRetries.Add(st.Protocol.SetupRetries)
	s.metrics.wormholeFallbacks.Add(st.Protocol.FallbackWormhole)
	res.Stats = &st
	return res, nil
}
