package wave

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ClosedWorkload is request-reply traffic with a bounded number of
// outstanding requests per node — the self-throttling load model of DSM
// systems (a processor stalls on outstanding remote accesses), in contrast
// to RunLoad's open-loop injection. Each node issues ReqFlits-long requests
// to pattern-chosen destinations; the destination immediately answers with a
// ReplyFlits-long reply; round-trip latency is measured request-issue to
// reply-delivery.
type ClosedWorkload struct {
	// Pattern picks request destinations (same names as Workload.Pattern).
	Pattern string
	// WorkingSet/Reuse/RedrawPeriod add the locality model (0 = off).
	WorkingSet   int
	Reuse        float64
	RedrawPeriod int

	// ReqFlits and ReplyFlits are the message sizes (e.g. a 4-flit read
	// request and a 32-flit cache-line reply).
	ReqFlits, ReplyFlits int
	// Outstanding bounds in-flight requests per node (like MSHRs).
	Outstanding int
	// ThinkCycles is the delay between a completion and the next issue.
	ThinkCycles int
	// Requests is the number of round trips each node must complete.
	Requests int
	// WantCircuit is passed to Send for both requests and replies.
	WantCircuit bool
	// Seed for the destination stream; 0 borrows the simulator seed + 2.
	Seed uint64
}

// Validate refuses a closed workload that cannot run: message sizes below
// one flit, no outstanding slot, no request, a negative think time or a
// negative locality field. RunClosedLoop and waved's job submission both
// run it.
func (w ClosedWorkload) Validate() error {
	if err := validateLocality(w.WorkingSet, w.RedrawPeriod); err != nil {
		return err
	}
	if w.ReqFlits < 1 || w.ReplyFlits < 1 {
		return fmt.Errorf("wave: closed workload needs positive request/reply sizes")
	}
	if w.Outstanding < 1 {
		return fmt.Errorf("wave: Outstanding must be >= 1")
	}
	if w.Requests < 1 {
		return fmt.Errorf("wave: Requests must be >= 1")
	}
	if w.ThinkCycles < 0 {
		return fmt.Errorf("wave: negative ThinkCycles")
	}
	return nil
}

// ClosedResult summarises a closed-loop run.
type ClosedResult struct {
	Protocol string

	// Completed round trips (all of them: Requests x Hosts).
	Completed int64
	// TotalCycles is the makespan of the whole run.
	TotalCycles int64

	AvgRoundTrip float64
	P50RoundTrip float64
	P99RoundTrip float64

	// Rate is completed requests per host per cycle — closed-loop
	// throughput.
	Rate float64

	// CircuitFraction of all messages (requests + replies).
	CircuitFraction float64
	HitRate         float64
}

// String renders a one-line digest.
func (r ClosedResult) String() string {
	return fmt.Sprintf("%s: rtt=%.1f (p99=%.0f) rate=%.5f req/node/cyc circ=%.0f%%",
		r.Protocol, r.AvgRoundTrip, r.P99RoundTrip, r.Rate, r.CircuitFraction*100)
}

// pendingReq tracks one outstanding request.
type pendingReq struct {
	requester int
	issued    int64
}

// RunClosedLoop drives the closed-loop workload to completion (every node
// finishes its Requests round trips) and returns round-trip statistics.
// maxCycles bounds the run; exceeding it (or tripping the watchdog) is an
// error.
func (s *Simulator) RunClosedLoop(w ClosedWorkload, maxCycles int64) (*ClosedResult, error) {
	return s.RunClosedLoopContext(context.Background(), w, maxCycles)
}

// RunClosedLoopContext is RunClosedLoop with between-cycle cancellation.
// Any OnDelivered callback registered before the call observes every
// delivery (requests and replies included) before the round-trip matching
// consumes it.
func (s *Simulator) RunClosedLoopContext(ctx context.Context, w ClosedWorkload, maxCycles int64) (*ClosedResult, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	pat, err := traffic.NewPattern(w.Pattern, s.topo)
	if err != nil {
		return nil, err
	}
	if w.WorkingSet > 0 {
		pat, err = traffic.NewLocality(pat, s.topo.Hosts(), w.WorkingSet, w.Reuse, w.RedrawPeriod)
		if err != nil {
			return nil, err
		}
	}
	seed := w.Seed
	if seed == 0 {
		seed = s.cfg.Seed + 2
	}
	rng := sim.NewRNG(seed)

	// Only hosts issue and answer requests: on indirect topologies the
	// switch-only vertices carry no processor, and the routing function has
	// no route between them.
	nodes := s.topo.Hosts()
	type nodeState struct {
		remaining   int
		outstanding int
		nextIssue   int64
	}
	ns := make([]nodeState, nodes)
	for i := range ns {
		ns[i].remaining = w.Requests
	}

	// Request/reply matching: in-flight request messages by ID, and replies
	// by ID mapped back to the original issue time.
	reqs := map[MsgID]pendingReq{}
	replies := map[MsgID]pendingReq{}

	var rtt stats.Series
	var circuitMsgs, totalMsgs int64
	completed := int64(0)
	start := s.now

	prev := s.onDelivered
	s.OnDelivered(func(d Delivery) {
		// Chained observers (e.g. waved's progress recorder) see every
		// delivery; the request/reply matching below then consumes it.
		if prev != nil {
			prev(d)
		}
		totalMsgs++
		if d.ViaCircuit {
			circuitMsgs++
		}
		if pr, ok := reqs[d.ID]; ok {
			// Request arrived at its home: answer immediately.
			delete(reqs, d.ID)
			id := s.mgr.Send(topology.Node(d.Dst), topology.Node(pr.requester), w.ReplyFlits, s.now, w.WantCircuit)
			replies[id] = pr
			return
		}
		if pr, ok := replies[d.ID]; ok {
			delete(replies, d.ID)
			rtt.Add(float64(s.now - pr.issued))
			completed++
			st := &ns[pr.requester]
			st.outstanding--
			st.nextIssue = s.now + int64(w.ThinkCycles)
		}
	})
	defer s.OnDelivered(prev)

	deadline := s.now + maxCycles
	for completed < int64(w.Requests)*int64(nodes) {
		if s.now >= deadline {
			return nil, fmt.Errorf("wave: closed loop incomplete after %d cycles (%d/%d round trips)",
				maxCycles, completed, int64(w.Requests)*int64(nodes))
		}
		for n := 0; n < nodes; n++ {
			st := &ns[n]
			for st.remaining > 0 && st.outstanding < w.Outstanding && s.now >= st.nextIssue {
				dst := pat.Pick(topology.Node(n), rng)
				if int(dst) == n {
					// Deterministic self-mappings (e.g. bit-reversal fixed
					// points) are local accesses: they complete immediately
					// and contribute no network round trip.
					st.remaining--
					completed++
					continue
				}
				id := s.mgr.Send(topology.Node(n), dst, w.ReqFlits, s.now, w.WantCircuit)
				reqs[id] = pendingReq{requester: n, issued: s.now}
				st.remaining--
				st.outstanding++
			}
		}
		if err := s.stepCtx(ctx); err != nil {
			return nil, err
		}
	}
	if err := s.DrainContext(ctx, maxCycles); err != nil {
		return nil, err
	}

	res := &ClosedResult{
		Protocol:     s.cfg.Protocol,
		Completed:    completed,
		TotalCycles:  s.now - start,
		AvgRoundTrip: rtt.Mean(),
		P50RoundTrip: rtt.Percentile(50),
		P99RoundTrip: rtt.Percentile(99),
		HitRate:      s.CacheStats().HitRate(),
	}
	if res.TotalCycles > 0 {
		res.Rate = float64(completed) / float64(res.TotalCycles) / float64(nodes)
	}
	if totalMsgs > 0 {
		res.CircuitFraction = float64(circuitMsgs) / float64(totalMsgs)
	}
	return res, nil
}
