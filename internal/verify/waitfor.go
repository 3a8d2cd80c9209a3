package verify

import (
	"fmt"

	"repro/internal/pcs"
	"repro/internal/protocol"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The extended wait-for graph adds the protocol-level dependencies the
// plain channel dependency graph cannot see. Vertices are resource classes
// a message (or its setup machinery) can block on; an edge A -> B means "a
// holder of A may wait for B to free". The layout over one dense index
// space:
//
//	[0, W)              wormhole channel vertices of the substrate proof
//	                    graph, with its edges embedded verbatim
//	[W, W+waveN)        wave channels (link slot x wave switch), held by
//	                    probe reservations and established circuits
//	W+waveN             the probe-reservation pool: an aggregation vertex
//	                    standing for "some wave channel anywhere" — probes
//	                    roam (misrouting, Force-phase waits on remote
//	                    victims), so the precise target set is the whole
//	                    residual wave network; routing waits through one
//	                    aggregate keeps the graph O(V) instead of O(N*V)
//	                    without changing reachability, hence cyclicity
//	then per node n:    cache[n]    a message blocked on its circuit-cache
//	                                entry (Setting: setup in flight;
//	                                In-use: queued behind the transfer)
//	                    setup[n]    the probe sequence (both CLRP phases,
//	                                retries included)
//	                    fallback[n] CLRP phase 3 / CARP / PCS wormhole
//	                                fallback injection at n
//
// Edge rules (circuit protocols; plain wormhole has only the substrate):
//
//	cache[n]    -> setup[n]        entry settles when the sequence ends
//	cache[n]    -> pool            queued messages wait for the circuit
//	                               transfer to drain (wave channels)
//	setup[n]    -> pool            probes hold/await wave channels,
//	                               including Force waits on victims
//	setup[n]    -> fallback[n]     a failed sequence degrades
//	fallback[n] -> injection channels of the substrate proof graph at n
//
// Wave-channel vertices are terminal: probes never block on a busy channel
// (misroute/backtrack), circuits drain on the wave pipe independent of the
// wormhole network, and teardown rides the dedicated control network — the
// obligations recorded in the certificate. The proof then checks the whole
// graph for cycles, so the layering claim ("nothing on the wormhole side
// ever waits on the wave side") is verified mechanically rather than
// assumed: any future dependency added in the wrong direction shows up as a
// concrete counterexample cycle.
type waitForGraph struct {
	sp      Spec
	base    *deadlockProof
	adj     [][]int32
	w       int // base graph vertex count
	waveN   int // wave channel vertices
	pool    int32
	cache0  int32
	setup0  int32
	fall0   int32
	removed map[pcs.Channel]bool
}

// buildWaitFor constructs the graph; faulted lists permanently failed wave
// channels to exclude (the residual re-proof).
func buildWaitFor(sp Spec, kind protocol.Kind, base *deadlockProof, faulted []pcs.Channel) *waitForGraph {
	topo := sp.Topo
	w := base.graph.NumVertices()
	waveN := topo.NumLinkSlots() * sp.NumSwitches
	nodes := topo.Nodes()
	g := &waitForGraph{
		sp: sp, base: base,
		w: w, waveN: waveN,
		pool:    int32(w + waveN),
		removed: make(map[pcs.Channel]bool, len(faulted)),
	}
	g.cache0 = g.pool + 1
	g.setup0 = g.cache0 + int32(nodes)
	g.fall0 = g.setup0 + int32(nodes)
	g.adj = make([][]int32, int(g.fall0)+nodes)
	for _, ch := range faulted {
		g.removed[ch] = true
	}

	// Substrate edges verbatim.
	for v := 0; v < w; v++ {
		g.adj[v] = base.graph.Out(int32(v))
	}
	if kind == protocol.Wormhole {
		return g
	}

	// Pool -> every surviving wave channel.
	for id := 0; id < topo.NumLinkSlots(); id++ {
		link := topology.LinkID(id)
		if _, ok := topo.LinkByID(link); !ok {
			continue
		}
		for sw := 0; sw < sp.NumSwitches; sw++ {
			if g.removed[pcs.Channel{Link: link, Switch: sw}] {
				continue
			}
			g.adj[g.pool] = append(g.adj[g.pool], g.waveVertex(link, sw))
		}
	}

	// Protocol strata per host node. The vertex space is laid out per node
	// for indexing simplicity, but only hosts source messages: switch nodes
	// on indirect families keep empty cache/setup/fallback vertices.
	var cands []routing.Candidate
	seen := make([]bool, w)
	for n := 0; n < topo.Hosts(); n++ {
		cache := g.cache0 + int32(n)
		setup := g.setup0 + int32(n)
		fall := g.fall0 + int32(n)
		g.adj[cache] = []int32{setup, g.pool}
		g.adj[setup] = []int32{g.pool, fall}
		// Fallback injects into the substrate proof graph: the channels a
		// wormhole message entering at n may first occupy, deduped.
		for i := range seen {
			seen[i] = false
		}
		for dst := topology.Node(0); int(dst) < topo.Hosts(); dst++ {
			if int(dst) == n {
				continue
			}
			cands = g.base.fn.Candidates(topology.Node(n), dst, topology.Invalid, 0, cands[:0])
			for _, c := range cands {
				v := g.base.graph.VertexID(c.Link, c.VC)
				if !seen[v] {
					seen[v] = true
					g.adj[fall] = append(g.adj[fall], v)
				}
			}
		}
	}
	return g
}

// waveVertex maps a wave channel to its vertex.
func (g *waitForGraph) waveVertex(link topology.LinkID, sw int) int32 {
	return int32(g.w + int(link)*g.sp.NumSwitches + sw)
}

// vertexName renders any extended-graph vertex for counterexamples.
func (g *waitForGraph) vertexName(v int32) string {
	topo := g.sp.Topo
	switch {
	case int(v) < g.w:
		return "wormhole " + g.base.graph.VertexName(v, topo)
	case int(v) < g.w+g.waveN:
		rel := int(v) - g.w
		link := topology.LinkID(rel / g.sp.NumSwitches)
		sw := rel % g.sp.NumSwitches
		if l, ok := topo.LinkByID(link); ok {
			return fmt.Sprintf("wave link %d->%d dim%d%v S%d", l.From, l.To, l.Dim, l.Dir, sw+1)
		}
		return fmt.Sprintf("wave link#%d S%d", link, sw+1)
	case v == g.pool:
		return "probe-reservation pool"
	case v < g.setup0:
		return fmt.Sprintf("circuit-cache entry at node %d", v-g.cache0)
	case v < g.fall0:
		return fmt.Sprintf("setup sequence at node %d", v-g.setup0)
	default:
		return fmt.Sprintf("wormhole fallback at node %d", v-g.fall0)
	}
}

// proveWaitFor checks the extended wait-for graph for cycles. faulted is
// nil for the unfaulted proof; proveResidual passes the permanent faults.
func proveWaitFor(sp Spec, kind protocol.Kind, dl deadlockProof, faulted []pcs.Channel) Proof {
	if !dl.OK {
		return Proof{OK: false, Method: "skipped",
			Detail: "no substrate proof to extend (deadlock proof failed)"}
	}
	if dl.graph == nil {
		// Recovery-certified substrate: there is no acyclic graph to splice
		// into; certification rests on the dynamic mechanism.
		return Proof{OK: true, Method: "recovery",
			Detail: "substrate certified by abort-and-retry recovery; protocol waits degrade to the recovered wormhole network"}
	}
	g := buildWaitFor(sp, kind, &dl, faulted)
	if cyc := routing.FindCycle(len(g.adj), nil, func(v int32) []int32 { return g.adj[v] }); cyc != nil {
		names := make([]string, len(cyc))
		for i, v := range cyc {
			names[i] = g.vertexName(v)
		}
		return Proof{OK: false, Method: "extended-wait-for",
			Detail:         "protocol-level wait-for cycle",
			Counterexample: names}
	}
	edges := 0
	for _, a := range g.adj {
		edges += len(a)
	}
	detail := fmt.Sprintf("extended wait-for graph acyclic: %d vertices "+
		"(%d wormhole, %d wave, %d protocol), %d edges",
		len(g.adj), g.w, g.waveN, len(g.adj)-g.w-g.waveN, edges)
	if kind == protocol.Wormhole {
		detail = fmt.Sprintf("wormhole-only: wait-for graph is the substrate dependency graph (%d vertices)", g.w)
	}
	return Proof{OK: true, Method: "extended-wait-for", Detail: detail}
}

// proveResidual re-proves the configuration with the spec's permanent wave
// faults removed from the wait-for graph. Fault channels were validated by
// Certify; here the residual graph is rebuilt and re-checked, and nodes
// left with no working outgoing wave channel are reported — they can no
// longer source circuits, and deliver exclusively through the wormhole
// fallback (whose proof faults cannot touch: the dynamic-fault machinery
// targets pcs.Channel values only).
func proveResidual(sp Spec, kind protocol.Kind, dl deadlockProof) Proof {
	if !dl.OK {
		return Proof{OK: false, Method: "skipped",
			Detail: "no substrate proof to re-establish (deadlock proof failed)"}
	}
	p := proveWaitFor(sp, kind, dl, sp.Faults)
	if !p.OK {
		p.Method = "residual"
		return p
	}
	removed := make(map[pcs.Channel]bool, len(sp.Faults))
	for _, ch := range sp.Faults {
		removed[ch] = true
	}
	// Per-node residual wave connectivity.
	var isolated []int
	if kind != protocol.Wormhole {
		for n := 0; n < sp.Topo.Nodes(); n++ {
			alive := 0
			for port := 0; port < sp.Topo.OutDegree(topology.Node(n)); port++ {
				link, ok := sp.Topo.OutSlot(topology.Node(n), port)
				if !ok {
					continue
				}
				for sw := 0; sw < sp.NumSwitches; sw++ {
					if !removed[pcs.Channel{Link: link, Switch: sw}] {
						alive++
					}
				}
			}
			if alive == 0 {
				isolated = append(isolated, n)
			}
		}
	}
	detail := fmt.Sprintf("re-proven with %d permanent wave faults removed; "+
		"wormhole substrate unaffected (faults target wave channels only)",
		len(removed))
	if len(isolated) > 0 {
		detail += fmt.Sprintf("; nodes %v have no working outgoing wave channel "+
			"and fall back to wormhole for every send", isolated)
	}
	return Proof{OK: true, Method: "residual", Detail: detail}
}
