package verify

import (
	"fmt"

	"repro/internal/protocol"
	"repro/internal/routing"
	"repro/internal/topology"
)

// deliveryProof is the result of the bounded-delivery analysis of one
// routing function: the mechanical content of Theorems 3-4 for the
// wormhole substrate, and the connectivity half of Duato's condition for
// the deadlock subrelation search.
type deliveryProof struct {
	ok bool
	// monotone: every reachable candidate hop strictly decreases the
	// distance to the destination, so path length is bounded by the
	// diameter regardless of adaptive choices.
	monotone bool
	// bound is the hop bound when monotone (the topology diameter).
	bound int
	// stuck describes a reachable undelivered state with no candidates.
	stuck string
	// cycle renders a routing-state cycle (non-monotone functions only).
	cycle []string
}

// proveDelivery enumerates every reachable routing state — exactly the
// state space BuildCDG walks: (occupied channel, destination) pairs seeded
// from all injections — and proves that any message following any sequence
// of the function's candidates reaches its destination in bounded hops:
//
//   - every reachable undelivered state offers at least one candidate
//     (no stuck states: the function is connected), and
//   - every candidate decreases Distance (monotone progress), or failing
//     that, the per-destination state graph is acyclic (bounded paths).
//
// Either way arbitration cannot starve the message forever: there are no
// infinite candidate walks, so the last flit leaves in finite time.
func proveDelivery(topo topology.Topology, fn routing.Func) deliveryProof {
	numVCs := fn.NumVCs()
	// Dense reachability over (channel vertex, destination).
	seen := routing.NewStateSet(topo.NumLinkSlots()*numVCs, topo.Nodes())
	type st struct {
		v   int32
		dst topology.Node
	}
	var stack []st
	var cands []routing.Candidate
	monotone := true

	checkHop := func(here topology.Node, dst topology.Node, c routing.Candidate) bool {
		l, ok := topo.LinkByID(c.Link)
		if !ok {
			return false
		}
		if topo.Distance(l.To, dst) >= topo.Distance(here, dst) {
			monotone = false
		}
		return true
	}

	push := func(v int32, dst topology.Node) {
		if seen.Add(v, dst) {
			stack = append(stack, st{v: v, dst: dst})
		}
	}

	// Injection states: (src, dst) host pairs entering the network (switch
	// nodes on indirect families never source or sink messages).
	hosts := topo.Hosts()
	for src := topology.Node(0); int(src) < hosts; src++ {
		for dst := topology.Node(0); int(dst) < hosts; dst++ {
			if src == dst {
				continue
			}
			cands = fn.Candidates(src, dst, topology.Invalid, 0, cands[:0])
			if len(cands) == 0 {
				return deliveryProof{stuck: fmt.Sprintf(
					"no candidates injecting at node %d toward %d", src, dst)}
			}
			for _, c := range cands {
				if checkHop(src, dst, c) {
					push(int32(int(c.Link)*numVCs+c.VC), dst)
				}
			}
		}
	}
	// Transit states.
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		link := topology.LinkID(int(s.v) / numVCs)
		vc := int(s.v) % numVCs
		l, ok := topo.LinkByID(link)
		if !ok {
			continue
		}
		if l.To == s.dst {
			continue // delivered
		}
		cands = fn.Candidates(l.To, s.dst, link, vc, cands[:0])
		if len(cands) == 0 {
			return deliveryProof{stuck: fmt.Sprintf(
				"stuck at node %d toward %d holding %s",
				l.To, s.dst, chanName(topo, numVCs, s.v))}
		}
		for _, c := range cands {
			if checkHop(l.To, s.dst, c) {
				push(int32(int(c.Link)*numVCs+c.VC), s.dst)
			}
		}
	}

	if monotone {
		return deliveryProof{ok: true, monotone: true, bound: topo.Diameter()}
	}
	// Non-minimal hops exist: fall back to per-destination state-graph
	// acyclicity, which still bounds every candidate walk.
	if cyc := stateCycle(topo, fn); cyc != nil {
		return deliveryProof{cycle: cyc}
	}
	return deliveryProof{ok: true}
}

// stateCycle searches the per-destination routing-state graph for a cycle
// and renders it, or returns nil when every destination's graph is acyclic.
func stateCycle(topo topology.Topology, fn routing.Func) []string {
	numVCs := fn.NumVCs()
	verts := topo.NumLinkSlots() * numVCs
	var cands []routing.Candidate
	color := make([]byte, verts) // 0 white, 1 gray, 2 black
	parent := make([]int32, verts)

	for dst := topology.Node(0); int(dst) < topo.Hosts(); dst++ {
		for i := range color {
			color[i] = 0
			parent[i] = -1
		}
		// Roots: first-hop channels of every source host toward dst.
		var roots []int32
		for src := topology.Node(0); int(src) < topo.Hosts(); src++ {
			if src == dst {
				continue
			}
			cands = fn.Candidates(src, dst, topology.Invalid, 0, cands[:0])
			for _, c := range cands {
				roots = append(roots, int32(int(c.Link)*numVCs+c.VC))
			}
		}
		succ := func(v int32) []int32 {
			link := topology.LinkID(int(v) / numVCs)
			vc := int(v) % numVCs
			l, ok := topo.LinkByID(link)
			if !ok || l.To == dst {
				return nil
			}
			cands = fn.Candidates(l.To, dst, link, vc, cands[:0])
			out := make([]int32, 0, len(cands))
			for _, c := range cands {
				out = append(out, int32(int(c.Link)*numVCs+c.VC))
			}
			return out
		}
		type frame struct {
			v    int32
			next []int32
			i    int
		}
		for _, root := range roots {
			if color[root] != 0 {
				continue
			}
			stack := []frame{{v: root, next: succ(root)}}
			color[root] = 1
			for len(stack) > 0 {
				f := &stack[len(stack)-1]
				if f.i < len(f.next) {
					w := f.next[f.i]
					f.i++
					switch color[w] {
					case 0:
						color[w] = 1
						parent[w] = f.v
						stack = append(stack, frame{v: w, next: succ(w)})
					case 1:
						cyc := []string{fmt.Sprintf("toward node %d: %s",
							dst, chanName(topo, numVCs, w))}
						for v := f.v; v != w; v = parent[v] {
							cyc = append(cyc, chanName(topo, numVCs, v))
						}
						cyc = append(cyc, chanName(topo, numVCs, w))
						for i, j := 1, len(cyc)-2; i < j; i, j = i+1, j-1 {
							cyc[i], cyc[j] = cyc[j], cyc[i]
						}
						return cyc
					}
				} else {
					color[f.v] = 2
					stack = stack[:len(stack)-1]
				}
			}
		}
	}
	return nil
}

// proveLivelock assembles the Theorem 3-4 argument: bounded wormhole paths
// for the substrate, bounded misroutes and retries for the wave layer, and
// the fallback chain terminating in the substrate.
func proveLivelock(sp Spec, kind protocol.Kind, fn routing.Func) Proof {
	d := proveDelivery(sp.Topo, fn)
	if !d.ok {
		p := Proof{OK: false, Method: "delivery"}
		if d.stuck != "" {
			p.Detail = "routing function is not connected: " + d.stuck
		} else {
			p.Detail = "routing function admits an unbounded candidate walk (livelock)"
			p.Counterexample = d.cycle
		}
		return p
	}
	var method, detail string
	if d.monotone {
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
