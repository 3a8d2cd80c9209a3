package routing

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/topology"
)

// CDG is a channel dependency graph: one vertex per (physical link, virtual
// channel) pair, with an edge from channel A to channel B whenever some
// message holding A may request B at the router joining them (Dally & Seitz).
// A routing function with an acyclic CDG is deadlock-free for wormhole
// switching; for adaptive functions the condition applies to the escape
// subfunction's graph (Duato), which the same walk builds at the states the
// whole function reaches (Escape).
type CDG struct {
	numVCs int
	// adj[v] lists the vertices v depends on (may wait for).
	adj [][]int32
	// delivery holds what the walk that built adj learnt about arrival.
	delivery Delivery
	// escape holds what the same walk learnt about the escape subfunction.
	escape Escape
}

// Delivery is what BuildCDG's reachable-state walk records for the delivery
// proof of internal/verify (Theorems 3-4), so that proof walks nothing of
// its own.
type Delivery struct {
	// Stuck renders the first reachable undelivered state, in walk order,
	// that offers no candidates; "" when every such state offers one.
	Stuck string
	// Missing renders the first candidate, in walk order, on a link slot the
	// topology does not have (a mesh border): the node offering it, the
	// destination and the slot. "" when every candidate names a link.
	Missing string
	// Monotone reports that every reachable candidate hop strictly decreases
	// Distance to the destination.
	Monotone bool
}

// Delivery returns the facts the walk recorded.
func (g *CDG) Delivery() Delivery { return g.delivery }

// Escape is what BuildCDG's walk records about the escape subfunction
// R1 = fn.Escape() at every (channel, destination) state fn itself reaches:
// the hypotheses of Duato's condition over R's reachable states, as
// Verbeek and Schmaltz state it, for internal/verify's deadlock proof.
type Escape struct {
	// Graph holds R1's direct dependencies: an edge from each escape
	// channel (one R1 offers at some state) to every channel R1 offers at a
	// state holding it. It is fn's own graph when fn is its own escape.
	Graph *CDG
	// Stuck renders the first undelivered state, in walk order, where R1
	// offers nothing; "" when there is none.
	Stuck string
	// Extra renders the first R1 candidate, in walk order, that fn does not
	// offer at the same state (R1 is then no subfunction of fn); "" when
	// there is none.
	Extra string
}

// Escape returns the facts the walk recorded about fn.Escape().
func (g *CDG) Escape() Escape { return g.escape }

// VertexID packs (link, vc) into a vertex, so higher layers (the
// internal/verify wait-for graph) can splice protocol-level dependencies
// into the channel vertices of this graph.
func (g *CDG) VertexID(link topology.LinkID, vc int) int32 {
	return int32(int(link)*g.numVCs + vc)
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

// stateSet is a dense set of routing states (occupied channel vertex,
// destination): one bit per state, indexed v*nodes+dst. It is the visited
// set of BuildCDG's reachable-state walk, 1.5 MB for a 32x32 torus at three
// VCs where a map of the same states costs most of the walk.
type stateSet struct {
	nodes int
	bits  []uint64
}

// newStateSet returns an empty set over verts channel vertices and nodes
// destinations.
func newStateSet(verts, nodes int) *stateSet {
	return &stateSet{nodes: nodes, bits: make([]uint64, (verts*nodes+63)/64)}
}

// Add inserts (v, dst) and reports whether it was absent.
func (s *stateSet) Add(v int32, dst topology.Node) bool {
	i := int(v)*s.nodes + int(dst)
	w, b := i>>6, uint64(1)<<(i&63)
	if s.bits[w]&b != 0 {
		return false
	}
	s.bits[w] |= b
	return true
}

// BuildCDG enumerates every dependency the routing function can create on the
// topology. Dependencies come only from *reachable* routing states: a
// (channel, destination) pair contributes edges only if some message with
// that destination can actually occupy that channel, which is established by
// forward traversal from every injection point. Enumerating unreachable
// states (e.g. a header sitting one hop past its own destination) would
// manufacture dependencies no execution exhibits.
//
// The same walk records the graph's Delivery facts. A candidate on a
// missing link is recorded there and followed no further: it is neither an
// edge nor a state, since no message can occupy a channel that is not there.
// When fn is not its own escape, the walk also asks the escape for its
// candidates at every state and records the Escape facts; the escape's
// candidates are never followed, so its states are exactly fn's.
func BuildCDG(topo topology.Topology, fn Func) *CDG {
	g := &CDG{numVCs: fn.NumVCs()}
	g.adj = make([][]int32, topo.NumLinkSlots()*g.numVCs)
	g.delivery.Monotone = true
	links := topo.Links()
	esc := fn.Escape()
	self := esc == fn
	var escOf []bool // the escape channels: those the escape offers somewhere
	if self {
		g.escape.Graph = g
	} else {
		g.escape.Graph = &CDG{numVCs: g.numVCs, adj: make([][]int32, len(g.adj))}
		escOf = make([]bool, len(g.adj))
	}

	// state = (occupied channel vertex, destination).
	type state struct {
		v   int32
		dst topology.Node
	}
	seen := newStateSet(len(g.adj), topo.Nodes())
	var stack []state
	var cands, escCands []Candidate

	where := func(held int32, here, dst topology.Node) string {
		if held < 0 {
			return fmt.Sprintf("injecting at node %d toward %d", here, dst)
		}
		return fmt.Sprintf("at node %d toward %d holding %s", here, dst, g.VertexName(held, topo))
	}

	// expand takes the candidates a message bound for dst is offered at node
	// here while holding vertex held (-1 at injection, when inLink is
	// Invalid): each is a dependency edge of held, a hop checked for
	// progress, and a state that may be newly reachable. An edge is appended
	// on first sight; adj[held] holds only output channels of one node, so
	// the duplicate check is a short scan. Then the escape is asked at the
	// same state; its edges are recorded out of every held channel and kept,
	// once the walk is over, only out of escape channels.
	expand := func(held int32, here, dst topology.Node, inLink topology.LinkID, inVC int) {
		cands = fn.Candidates(here, dst, inLink, inVC, cands[:0])
		if len(cands) == 0 && g.delivery.Stuck == "" {
			prefix := "stuck "
			if held < 0 {
				prefix = "no candidates "
			}
			g.delivery.Stuck = prefix + where(held, here, dst)
		}
		dHere := -1
		for _, c := range cands {
			to := g.VertexID(c.Link, c.VC)
			if !links.Exists(c.Link) {
				if g.delivery.Missing == "" {
					g.delivery.Missing = fmt.Sprintf("node %d toward %d offers %s",
						here, dst, g.VertexName(to, topo))
				}
				continue
			}
			next := topology.Node(links.To[c.Link])
			if g.delivery.Monotone {
				if dHere < 0 {
					dHere = topo.Distance(here, dst)
				}
				if topo.Distance(next, dst) >= dHere {
					g.delivery.Monotone = false
				}
			}
			if held >= 0 && !g.HasEdge(held, to) {
				g.adj[held] = append(g.adj[held], to)
			}
			if seen.Add(to, dst) {
				stack = append(stack, state{v: to, dst: dst})
			}
		}
		if self {
			return
		}
		escCands = esc.Candidates(here, dst, inLink, inVC, escCands[:0])
		if len(escCands) == 0 && g.escape.Stuck == "" {
			g.escape.Stuck = "escape offers nothing " + where(held, here, dst)
		}
		for _, c := range escCands {
			to := g.VertexID(c.Link, c.VC)
			if g.escape.Extra == "" && !slices.Contains(cands, c) {
				g.escape.Extra = fmt.Sprintf("escape offers %s %s; %s does not",
					g.VertexName(to, topo), where(held, here, dst), fn.Name())
			}
			if !links.Exists(c.Link) {
				continue
			}
			escOf[to] = true
			if eg := g.escape.Graph; held >= 0 && !eg.HasEdge(held, to) {
				eg.adj[held] = append(eg.adj[held], to)
			}
		}
	}

	// Seed: every injected (src, dst) pair reaches its first-hop channels.
	// Messages originate and terminate at hosts (on cubes every node is a
	// host; on fat trees the switches never inject), so seeding ranges over
	// host pairs.
	for src := topology.Node(0); int(src) < topo.Hosts(); src++ {
		for dst := topology.Node(0); int(dst) < topo.Hosts(); dst++ {
			if src != dst {
				expand(-1, src, dst, topology.Invalid, 0)
			}
		}
	}
	// Propagate: a message on channel (link, vc) bound for dst requests the
	// candidates at the link's sink.
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		link := topology.LinkID(int(s.v) / g.numVCs)
		if at := topology.Node(links.To[link]); at != s.dst { // else delivered
			expand(s.v, at, s.dst, link, int(s.v)%g.numVCs)
		}
	}

	if self {
		g.escape.Stuck = g.delivery.Stuck
	}
	for v, isEsc := range escOf {
		if !isEsc {
			g.escape.Graph.adj[v] = nil
		}
	}
	return g
}

// A CDG is a pure function of (topology shape, routing function, VC count):
// identically shaped topologies share one deterministic node and LinkID
// numbering. BuildCDG walks Nodes^2 injection pairs plus every reachable
// (channel, destination) state, with one bit per state and no hash map —
// still costly enough that the verification endpoint must not pay it again
// for every repeated /v1/verify call or matrix sweep over the same
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
	return FindCycle(len(g.adj), nil, g.Out)
}

// FindCycle is the one cycle finder of the prover: an iterative three-colour
// DFS over vertices [0, n) from each root in turn (nil roots: every vertex,
// ascending), where succ(v) lists v's successors. It returns the first cycle
// found as a vertex sequence (first == last) in edge order, or nil when no
// cycle is reachable from the roots. succ is called once per visited vertex
// and may build its result lazily; the DFS keeps the returned slice while v
// is on the stack. The explicit stack survives graphs of any depth.
func FindCycle(n int, roots []int32, succ func(v int32) []int32) []int32 {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, n)
	parent := make([]int32, n)
	type frame struct {
		v    int32
		next []int32
	}
	var stack []frame
	visit := func(root int32) []int32 {
		if color[root] != white {
			return nil
		}
		color[root] = gray
		stack = append(stack[:0], frame{v: root, next: succ(root)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if len(f.next) == 0 {
				color[f.v] = black
				stack = stack[:len(stack)-1]
				continue
			}
			w := f.next[0]
			f.next = f.next[1:]
			switch color[w] {
			case white:
				color[w] = gray
				parent[w] = f.v
				stack = append(stack, frame{v: w, next: succ(w)})
			case gray:
				// Walk parents from f.v back to w, then reverse the
				// interior into edge order.
				cycle := []int32{w}
				for v := f.v; v != w; v = parent[v] {
					cycle = append(cycle, v)
				}
				cycle = append(cycle, w)
				for i, j := 1, len(cycle)-2; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return cycle
			}
		}
		return nil
	}
	if roots == nil {
		for v := 0; v < n; v++ {
			if cyc := visit(int32(v)); cyc != nil {
				return cyc
			}
		}
		return nil
	}
	for _, root := range roots {
		if cyc := visit(root); cyc != nil {
			return cyc
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
