package routing

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/topology"
)

// CDG is a channel dependency graph: one vertex per (physical link, virtual
// channel) pair, with an edge from channel A to channel B whenever some
// message holding A may request B at the router joining them (Dally & Seitz).
// A routing function with an acyclic CDG is deadlock-free for wormhole
// switching; for adaptive functions the condition applies to the escape
// subfunction's graph (Duato).
type CDG struct {
	numVCs int
	slots  int
	// adj[v] lists the vertices v depends on (may wait for).
	adj [][]int32
}

// vertexID packs (link, vc).
func (g *CDG) vertexID(link topology.LinkID, vc int) int32 {
	return int32(int(link)*g.numVCs + vc)
}

// VertexID exposes the (link, vc) -> vertex packing so higher layers (the
// internal/verify wait-for graph) can splice protocol-level dependencies
// into the channel vertices of this graph.
func (g *CDG) VertexID(link topology.LinkID, vc int) int32 {
	return g.vertexID(link, vc)
}

// NumVertices returns the dense vertex-space size (link slots x VCs).
func (g *CDG) NumVertices() int { return len(g.adj) }

// Out returns the dependency targets of vertex v. The returned slice is the
// graph's own storage; callers must not mutate it.
func (g *CDG) Out(v int32) []int32 { return g.adj[v] }

// HasEdge reports whether the dependency from -> to exists. Counterexample
// validation uses it to check that a reported cycle is a real cycle.
func (g *CDG) HasEdge(from, to int32) bool {
	if from < 0 || int(from) >= len(g.adj) {
		return false
	}
	for _, w := range g.adj[from] {
		if w == to {
			return true
		}
	}
	return false
}

// VertexName renders a vertex for diagnostics.
func (g *CDG) VertexName(v int32, topo topology.Topology) string {
	link := topology.LinkID(int(v) / g.numVCs)
	vc := int(v) % g.numVCs
	if l, ok := topo.LinkByID(link); ok {
		return fmt.Sprintf("link %d->%d dim%d%v vc%d", l.From, l.To, l.Dim, l.Dir, vc)
	}
	return fmt.Sprintf("link#%d vc%d", link, vc)
}

// BuildCDG enumerates every dependency the routing function can create on the
// topology. Dependencies come only from *reachable* routing states: a
// (channel, destination) pair contributes edges only if some message with
// that destination can actually occupy that channel, which is established by
// forward traversal from every injection point. Enumerating unreachable
// states (e.g. a header sitting one hop past its own destination) would
// manufacture dependencies no execution exhibits.
func BuildCDG(topo topology.Topology, fn Func) *CDG {
	g := &CDG{numVCs: fn.NumVCs(), slots: topo.NumLinkSlots()}
	g.adj = make([][]int32, g.slots*g.numVCs)
	seenEdge := make(map[int64]bool)
	addEdge := func(from, to int32) {
		key := int64(from)<<32 | int64(uint32(to))
		if seenEdge[key] {
			return
		}
		seenEdge[key] = true
		g.adj[from] = append(g.adj[from], to)
	}

	// state = (occupied channel vertex, destination).
	type state struct {
		v   int32
		dst topology.Node
	}
	seenState := make(map[state]bool)
	var stack []state
	var cands []Candidate

	// Seed: every injected (src, dst) pair reaches its first-hop channels.
	// Messages originate and terminate at hosts (on cubes every node is a
	// host; on fat trees the switches never inject), so seeding ranges over
	// host pairs.
	for src := topology.Node(0); int(src) < topo.Hosts(); src++ {
		for dst := topology.Node(0); int(dst) < topo.Hosts(); dst++ {
			if src == dst {
				continue
			}
			cands = fn.Candidates(src, dst, topology.Invalid, 0, cands[:0])
			for _, c := range cands {
				s := state{v: g.vertexID(c.Link, c.VC), dst: dst}
				if !seenState[s] {
					seenState[s] = true
					stack = append(stack, s)
				}
			}
		}
	}
	// Propagate: a message on channel (link, vc) bound for dst requests the
	// candidates at the link's sink; each is both a dependency edge and a
	// newly reachable state.
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		link := topology.LinkID(int(s.v) / g.numVCs)
		vc := int(s.v) % g.numVCs
		l, ok := topo.LinkByID(link)
		if !ok {
			continue
		}
		if l.To == s.dst {
			continue // delivered; no further dependencies
		}
		cands = fn.Candidates(l.To, s.dst, link, vc, cands[:0])
		for _, c := range cands {
			to := g.vertexID(c.Link, c.VC)
			addEdge(s.v, to)
			ns := state{v: to, dst: s.dst}
			if !seenState[ns] {
				seenState[ns] = true
				stack = append(stack, ns)
			}
		}
	}
	return g
}

// A CDG is a pure function of (topology shape, routing function, VC count):
// identically shaped topologies share one deterministic node and LinkID
// numbering. BuildCDG walks Nodes^2 injection pairs plus every reachable
// (channel, destination) state and dedups edges through a per-build map —
// costly enough that the verification endpoint must not pay it again for
// every repeated /v1/verify call or matrix sweep over the same
// configuration. A built CDG is immutable (the prover only reads adjacency),
// so sharing one instance is free.

// cdgKey identifies a CDG. Topology.Name() encodes the kind and every
// dimension ("8-ary 2-cube (torus)", "4x6 mesh", "5-dimensional hypercube");
// nodes guards against any two shapes that could ever share a name; the
// function name and VC count pin the generator.
type cdgKey struct {
	topoName string
	nodes    int
	fnName   string
	numVCs   int
}

const cdgCacheMax = 32

var (
	cdgCacheMu sync.Mutex
	cdgCache   = make(map[cdgKey]*CDG)
)

// BuildCDGCached is BuildCDG memoized on (topology name, node count,
// function name, VC count). Safe for concurrent callers; the bound resets
// the cache rather than letting pathological shape churn grow it without
// limit.
func BuildCDGCached(topo topology.Topology, fn Func) *CDG {
	key := cdgKey{
		topoName: topo.Name(),
		nodes:    topo.Nodes(),
		fnName:   fn.Name(),
		numVCs:   fn.NumVCs(),
	}
	cdgCacheMu.Lock()
	defer cdgCacheMu.Unlock()
	if g, ok := cdgCache[key]; ok {
		return g
	}
	g := BuildCDG(topo, fn)
	if len(cdgCache) >= cdgCacheMax {
		clear(cdgCache)
	}
	cdgCache[key] = g
	return g
}

// FindCycle returns a dependency cycle as a vertex sequence (first == last),
// or nil when the graph is acyclic.
func (g *CDG) FindCycle() []int32 {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, len(g.adj))
	parent := make([]int32, len(g.adj))
	for i := range parent {
		parent[i] = -1
	}
	// Iterative DFS with an explicit stack to survive large graphs.
	type frame struct {
		v    int32
		next int
	}
	for start := range g.adj {
		if color[start] != white {
			continue
		}
		stack := []frame{{v: int32(start)}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.adj[f.v]) {
				w := g.adj[f.v][f.next]
				f.next++
				switch color[w] {
				case white:
					color[w] = gray
					parent[w] = f.v
					stack = append(stack, frame{v: w})
				case gray:
					// Found a cycle: walk parents from f.v back to w.
					cycle := []int32{w}
					for v := f.v; v != w; v = parent[v] {
						cycle = append(cycle, v)
					}
					cycle = append(cycle, w)
					// Reverse into forward order.
					for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
						cycle[i], cycle[j] = cycle[j], cycle[i]
					}
					return cycle
				}
			} else {
				color[f.v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// ShortestCycle returns a minimum-length dependency cycle as a vertex
// sequence (first == last), or nil when the graph is acyclic. FindCycle is
// the fast existence check; this is the diagnostic used to render the
// smallest possible counterexample when a proof fails — a 4-vertex ring
// cycle reads better than the 40-vertex tangle DFS happens to stumble into.
// Cost is O(V*(V+E)) BFS passes, fine at verification sizes.
func (g *CDG) ShortestCycle() []int32 {
	n := len(g.adj)
	dist := make([]int32, n)
	parent := make([]int32, n)
	var best []int32
	for start := 0; start < n; start++ {
		if len(g.adj[start]) == 0 {
			continue
		}
		for i := range dist {
			dist[i] = -1
			parent[i] = -1
		}
		// BFS from start; the first edge w -> start closes a shortest cycle
		// through start of length dist[w]+1.
		queue := []int32{int32(start)}
		dist[start] = 0
	bfs:
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if best != nil && int(dist[v])+1 >= len(best) {
				break // cannot improve on the incumbent
			}
			for _, w := range g.adj[v] {
				if int(w) == start {
					cyc := []int32{int32(start)}
					for u := v; u != int32(start); u = parent[u] {
						cyc = append(cyc, u)
					}
					cyc = append(cyc, int32(start))
					// cyc is [start, v, parent(v), ..., x, start]; reverse the
					// interior so the hops read in forward edge order.
					for i, j := 1, len(cyc)-2; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					best = cyc
					break bfs
				}
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					parent[w] = v
					queue = append(queue, w)
				}
			}
		}
		if best != nil && len(best) == 2 {
			break // self-loop; nothing shorter exists
		}
	}
	return best
}

// NumEdges returns the number of distinct dependencies.
func (g *CDG) NumEdges() int {
	n := 0
	for _, a := range g.adj {
		n += len(a)
	}
	return n
}

// Verify builds the escape-restricted dependency graph for fn on topo and
// returns an error describing a cycle if one exists. This is the static
// deadlock-freedom check used by the theorem tests and cmd/cdgcheck.
func Verify(topo topology.Topology, fn Func) error {
	g := BuildCDG(topo, fn.Escape())
	if cyc := g.FindCycle(); cyc != nil {
		names := make([]string, len(cyc))
		for i, v := range cyc {
			names[i] = g.VertexName(v, topo)
		}
		return fmt.Errorf("routing: %s has a channel dependency cycle on %s: %v", fn.Name(), topo.Name(), names)
	}
	return nil
}

// Reachability checks that the escape subfunction can route from every host
// to every destination host (connectedness, the other half of Duato's
// condition). Switch-to-switch pairs are excluded: on a fat tree two root
// switches have no up*/down* path, and no message ever needs one.
func Reachability(topo topology.Topology, fn Func) error {
	esc := fn.Escape()
	var cands []Candidate
	for src := topology.Node(0); int(src) < topo.Hosts(); src++ {
		for dst := topology.Node(0); int(dst) < topo.Hosts(); dst++ {
			if src == dst {
				continue
			}
			here := src
			inLink := topology.Invalid
			inVC := 0
			for hops := 0; here != dst; hops++ {
				if hops > topo.Nodes() {
					return fmt.Errorf("routing: escape of %s loops from %d to %d", fn.Name(), src, dst)
				}
				cands = esc.Candidates(here, dst, inLink, inVC, cands[:0])
				if len(cands) == 0 {
					return fmt.Errorf("routing: escape of %s is stuck at node %d heading to %d", fn.Name(), here, dst)
				}
				l, ok := topo.LinkByID(cands[0].Link)
				if !ok {
					return fmt.Errorf("routing: escape of %s chose a missing link at node %d", fn.Name(), here)
				}
				inLink, inVC, here = cands[0].Link, cands[0].VC, l.To
			}
		}
	}
	return nil
}

// Stats summarises a CDG for reporting.
func (g *CDG) Stats() (vertices, edges int, maxOut int) {
	for _, a := range g.adj {
		if len(a) > 0 {
			edges += len(a)
		}
		if len(a) > maxOut {
			maxOut = len(a)
		}
	}
	used := make(map[int32]bool)
	for v, a := range g.adj {
		if len(a) > 0 {
			used[int32(v)] = true
		}
		for _, w := range a {
			used[w] = true
		}
	}
	return len(used), edges, maxOut
}

// SortedAdjacency returns a deterministic rendering of the graph edges for
// golden tests.
func (g *CDG) SortedAdjacency() [][2]int32 {
	var out [][2]int32
	for v, a := range g.adj {
		for _, w := range a {
			out = append(out, [2]int32{int32(v), w})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
