package verify

import (
	"fmt"

	"repro/internal/protocol"
	"repro/internal/routing"
	"repro/internal/topology"
)

// deliveryProof is the result of the bounded-delivery analysis of one
// routing function: the mechanical content of Theorems 3-4 for the
// wormhole substrate. The escape subfunction needs no delivery proof of
// its own: the deadlock proof reads off fn's walk that the escape offers a
// candidate at every state fn reaches, and its acyclic graph then bounds
// every escape path.
type deliveryProof struct {
	// Delivery holds the walk's facts: the first stuck state, the first
	// candidate on a missing link, and whether every hop makes progress
	// (Monotone: path length is bounded by the diameter regardless of
	// adaptive choices).
	routing.Delivery
	ok bool
	// bound is the hop bound when monotone (the topology diameter).
	bound int
	// cycle renders a routing-state cycle (non-monotone functions only).
	cycle []string
}

// proveDelivery proves, from the facts the walk that built g (fn's CDG)
// recorded over every reachable (occupied channel, destination) state, that
// any message following any sequence of fn's candidates reaches its
// destination in bounded hops:
//
//   - every reachable undelivered state offers at least one candidate
//     (no stuck states: the function is connected), every candidate names
//     a link that exists, and
//   - every candidate decreases Distance (monotone progress), or failing
//     that, the per-destination state graph is acyclic (bounded paths).
//
// Either way arbitration cannot starve the message forever: there are no
// infinite candidate walks, so the last flit leaves in finite time.
func proveDelivery(topo topology.Topology, fn routing.Func, g *routing.CDG) deliveryProof {
	d := deliveryProof{Delivery: g.Delivery()}
	switch {
	case d.Stuck != "" || d.Missing != "":
		// Not connected: ok stays false.
	case d.Monotone:
		d.ok, d.bound = true, topo.Diameter()
	default:
		// Non-minimal hops exist: fall back to per-destination state-graph
		// acyclicity, which still bounds every candidate walk.
		d.cycle = stateCycle(topo, fn, g)
		d.ok = d.cycle == nil
	}
	return d
}

// stateCycle searches the per-destination routing-state graph for a cycle
// and renders it through g's vertex names, or returns nil when every
// destination's graph is acyclic. Successors are computed as the search
// reaches them.
func stateCycle(topo topology.Topology, fn routing.Func, g *routing.CDG) []string {
	numVCs := fn.NumVCs()
	var cands []routing.Candidate
	for dst := topology.Node(0); int(dst) < topo.Hosts(); dst++ {
		// Roots: first-hop channels of every source host toward dst.
		var roots []int32
		for src := topology.Node(0); int(src) < topo.Hosts(); src++ {
			if src == dst {
				continue
			}
			cands = fn.Candidates(src, dst, topology.Invalid, 0, cands[:0])
			for _, c := range cands {
				roots = append(roots, g.VertexID(c.Link, c.VC))
			}
		}
		if len(roots) == 0 {
			continue
		}
		succ := func(v int32) []int32 {
			link := topology.LinkID(int(v) / numVCs)
			l, ok := topo.LinkByID(link)
			if !ok || l.To == dst {
				return nil
			}
			cands = fn.Candidates(l.To, dst, link, int(v)%numVCs, cands[:0])
			out := make([]int32, 0, len(cands))
			for _, c := range cands {
				out = append(out, g.VertexID(c.Link, c.VC))
			}
			return out
		}
		if cyc := routing.FindCycle(g.NumVertices(), roots, succ); cyc != nil {
			names := make([]string, len(cyc))
			for i, v := range cyc {
				names[i] = g.VertexName(v, topo)
			}
			names[0] = fmt.Sprintf("toward node %d: %s", dst, names[0])
			return names
		}
	}
	return nil
}

// proveLivelock assembles the Theorem 3-4 argument from g, fn's graph:
// bounded wormhole paths for the substrate, bounded misroutes and retries
// for the wave layer, and the fallback chain terminating in the substrate.
func proveLivelock(sp Spec, kind protocol.Kind, fn routing.Func, g *routing.CDG) Proof {
	d := proveDelivery(sp.Topo, fn, g)
	if !d.ok {
		p := Proof{OK: false, Method: "delivery"}
		switch {
		case d.Stuck != "":
			p.Detail = "routing function is not connected: " + d.Stuck
		case d.Missing != "":
			p.Detail = "routing function offers a link the topology does not have"
			p.Counterexample = []string{d.Missing}
		default:
			p.Detail = "routing function admits an unbounded candidate walk (livelock)"
			p.Counterexample = d.cycle
		}
		return p
	}
	var method, detail string
	if d.Monotone {
		method = "monotone-progress"
		detail = fmt.Sprintf("every reachable candidate hop strictly decreases "+
			"distance; wormhole paths are bounded by the diameter (%d hops)", d.bound)
	} else {
		method = "bounded-path"
		detail = "per-destination routing-state graph is acyclic; every candidate walk terminates"
	}
	if kind != protocol.Wormhole {
		detail += fmt.Sprintf("; probes misroute at most m=%d times then backtrack "+
			"(MB-m terminates), a setup sequence visits each of the k=%d switches "+
			"at most twice (CLRP phases 1-2), retries are bounded by "+
			"ProbeRetryLimit=%d, and the terminal fallback is the wormhole "+
			"substrate proven above", sp.MaxMisroutes, sp.NumSwitches, sp.ProbeRetryLimit)
	}
	if sp.RecoveryTimeout > 0 {
		detail += fmt.Sprintf("; abort-and-retry recovery re-injects aborted "+
			"messages unchanged (timeout %d), and progress between aborts is "+
			"monotone", sp.RecoveryTimeout)
	}
	return Proof{OK: true, Method: method, Detail: detail}
}
