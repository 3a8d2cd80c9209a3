// Package traffic generates the synthetic workloads the experiments drive
// the network with: the classic permutation patterns of the interconnection-
// network literature (uniform, transpose, bit-reversal, bit-complement,
// tornado, neighbour, hotspot), plus an explicit communication-locality model
// — the controlled variable of this paper, since circuits only pay off when
// "two nodes are going to communicate frequently" (section 1).
package traffic

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Pattern maps a source node to a destination node, possibly randomly.
type Pattern interface {
	// Name identifies the pattern.
	Name() string
	// Pick returns the destination for a message from src.
	Pick(src topology.Node, rng *sim.RNG) topology.Node
}

// NewPattern builds a pattern by name for the topology. Supported names:
// uniform, transpose, bitreverse, bitcomplement, tornado, neighbor, hotspot.
// Patterns address hosts (0..Hosts()-1): on cubes every node is a host; on a
// fat tree the switches neither source nor sink traffic. Transpose and
// tornado are coordinate permutations and need cube geometry.
func NewPattern(name string, topo topology.Topology) (Pattern, error) {
	hosts := topo.Hosts()
	switch name {
	case "uniform":
		return Uniform{N: hosts}, nil
	case "transpose":
		g, ok := topo.(topology.Geometry)
		if !ok || g.Dims() != 2 || g.Radix(0) != g.Radix(1) {
			return nil, fmt.Errorf("traffic: transpose needs a square 2-D network")
		}
		return Transpose{to: coordPermutation(g, func(c []int) { c[0], c[1] = c[1], c[0] })}, nil
	case "bitreverse":
		if hosts&(hosts-1) != 0 {
			return nil, fmt.Errorf("traffic: bit-reversal needs a power-of-two host count")
		}
		return BitReverse{N: hosts}, nil
	case "bitcomplement":
		if hosts&(hosts-1) != 0 {
			return nil, fmt.Errorf("traffic: bit-complement needs a power-of-two host count")
		}
		return BitComplement{N: hosts}, nil
	case "tornado":
		g, ok := topo.(topology.Geometry)
		if !ok {
			return nil, fmt.Errorf("traffic: tornado is a torus-coordinate pattern; %s has no cube geometry", topo.Name())
		}
		return Tornado{to: coordPermutation(g, func(c []int) {
			for d := range c {
				k := g.Radix(d)
				c[d] = (c[d] + (k/2 - 1 + k%2)) % k
			}
		})}, nil
	case "neighbor":
		return Neighbor{Topo: topo}, nil
	case "hotspot":
		return Hotspot{N: hosts, Spot: topology.Node(hosts / 2), Fraction: 0.2}, nil
	case "near":
		return NewNear(topo, 2)
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}

// Near picks uniformly among hosts within Radius hops (excluding self) — the
// spatial communication locality the paper expects from "an appropriate
// mapping of processes to processors" (section 1). Short circuits consume few
// wave channels, so many can coexist.
type Near struct {
	Topo   topology.Topology
	Radius int

	within [][]topology.Node // per source host: hosts at distance 1..Radius
}

// NewNear precomputes the neighbourhoods by breadth-first search to depth
// Radius from each source host — O(Hosts * ball size), where the former
// all-pairs Distance scan was O(Nodes^2) and alone dominated construction
// on mega topologies (64x64+). The BFS expands through every out link (on a
// fat tree that traverses switches), but only hosts enter the ball; each
// ball is sorted ascending to reproduce the exact dst order (and hence Pick
// behaviour) of the old scan.
func NewNear(topo topology.Topology, radius int) (*Near, error) {
	if radius < 1 {
		return nil, fmt.Errorf("traffic: near radius must be >= 1, got %d", radius)
	}
	hosts := topo.Hosts()
	n := &Near{Topo: topo, Radius: radius, within: make([][]topology.Node, hosts)}
	seen := make([]int32, topo.Nodes()) // generation marks, one pass per src
	for i := range seen {
		seen[i] = -1
	}
	links := topo.Links().To
	var frontier, next []topology.Node
	for src := topology.Node(0); int(src) < hosts; src++ {
		gen := int32(src)
		seen[src] = gen
		frontier = append(frontier[:0], src)
		var ball []topology.Node
		for depth := 0; depth < radius && len(frontier) > 0; depth++ {
			next = next[:0]
			for _, at := range frontier {
				base := topo.SlotBase(at)
				for _, to := range links[base : base+topo.OutDegree(at)] {
					if to < 0 {
						continue // phantom slot (mesh boundary)
					}
					nb := topology.Node(to)
					if seen[nb] == gen {
						continue
					}
					seen[nb] = gen
					next = append(next, nb)
					if int(nb) < hosts {
						ball = append(ball, nb)
					}
				}
			}
			frontier, next = next, frontier
		}
		if len(ball) == 0 {
			return nil, fmt.Errorf("traffic: node %d has no neighbours within radius %d", src, radius)
		}
		sort.Slice(ball, func(i, j int) bool { return ball[i] < ball[j] })
		n.within[src] = ball
	}
	return n, nil
}

// Name implements Pattern.
func (n *Near) Name() string { return fmt.Sprintf("near(r=%d)", n.Radius) }

// Pick implements Pattern.
func (n *Near) Pick(src topology.Node, rng *sim.RNG) topology.Node {
	set := n.within[src]
	return set[rng.Intn(len(set))]
}

// Uniform sends to a uniformly random node (possibly self-excluding).
type Uniform struct{ N int }

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Pick implements Pattern.
func (u Uniform) Pick(src topology.Node, rng *sim.RNG) topology.Node {
	for {
		d := topology.Node(rng.Intn(u.N))
		if d != src {
			return d
		}
	}
}

// Transpose sends (x, y) to (y, x) — a classic adversarial permutation for
// dimension-order routing.
type Transpose struct{ to []topology.Node }

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// Pick implements Pattern.
func (t Transpose) Pick(src topology.Node, _ *sim.RNG) topology.Node { return t.to[src] }

// coordPermutation tabulates a coordinate permutation once, at
// construction: entry n is the node at move(coordinates of n). Pick then
// reads one entry and allocates nothing.
func coordPermutation(g topology.Geometry, move func(c []int)) []topology.Node {
	to := make([]topology.Node, g.Nodes())
	c := make([]int, g.Dims())
	for n := range to {
		g.Coord(topology.Node(n), c)
		move(c)
		to[n] = g.NodeAt(c)
	}
	return to
}

// BitReverse sends node b_{n-1}..b_0 to node b_0..b_{n-1}.
type BitReverse struct{ N int }

// Name implements Pattern.
func (BitReverse) Name() string { return "bitreverse" }

// Pick implements Pattern.
func (b BitReverse) Pick(src topology.Node, _ *sim.RNG) topology.Node {
	w := bits.Len(uint(b.N)) - 1
	return topology.Node(int(bits.Reverse(uint(src))>>(bits.UintSize-w)) % b.N)
}

// BitComplement sends node b to ^b.
type BitComplement struct{ N int }

// Name implements Pattern.
func (BitComplement) Name() string { return "bitcomplement" }

// Pick implements Pattern.
func (b BitComplement) Pick(src topology.Node, _ *sim.RNG) topology.Node {
	return topology.Node((b.N - 1) ^ int(src))
}

// Tornado sends half way around each dimension — the worst case for minimal
// routing on tori.
type Tornado struct{ to []topology.Node }

// Name implements Pattern.
func (Tornado) Name() string { return "tornado" }

// Pick implements Pattern.
func (t Tornado) Pick(src topology.Node, _ *sim.RNG) topology.Node { return t.to[src] }

// Neighbor sends to the +1 neighbour in dimension 0 (maximal locality) on
// cube geometries, and to the next host in numbering order elsewhere.
type Neighbor struct{ Topo topology.Topology }

// Name implements Pattern.
func (Neighbor) Name() string { return "neighbor" }

// Pick implements Pattern.
func (n Neighbor) Pick(src topology.Node, _ *sim.RNG) topology.Node {
	if g, ok := n.Topo.(topology.Geometry); ok {
		if nb, ok := g.Neighbor(src, 0, topology.Plus); ok {
			return nb
		}
		nb, _ := g.Neighbor(src, 0, topology.Minus)
		return nb
	}
	return topology.Node((int(src) + 1) % n.Topo.Hosts())
}

// Hotspot sends a fraction of traffic to one node and the rest uniformly.
type Hotspot struct {
	N        int
	Spot     topology.Node
	Fraction float64
}

// Name implements Pattern.
func (Hotspot) Name() string { return "hotspot" }

// Pick implements Pattern.
func (h Hotspot) Pick(src topology.Node, rng *sim.RNG) topology.Node {
	if src != h.Spot && rng.Bool(h.Fraction) {
		return h.Spot
	}
	return Uniform{N: h.N}.Pick(src, rng)
}

// ---------------------------------------------------------------------------
// Locality model.

// Locality wraps a base pattern with working sets: with probability Reuse a
// node sends to a member of its current working set (drawn once from the base
// pattern), otherwise to a fresh base-pattern destination. Every Period
// messages the working set is redrawn. Reuse=0 degenerates to the base
// pattern; Reuse near 1 with a small working set is the temporal locality
// that makes circuit caching pay.
type Locality struct {
	Base    Pattern
	SetSize int     // working-set size per node
	Reuse   float64 // probability of sending within the working set
	Period  int     // messages between working-set redraws (0 = never)

	sets  [][]topology.Node
	count []int
}

// NewLocality builds the locality wrapper for n nodes.
func NewLocality(base Pattern, nodes, setSize int, reuse float64, period int) (*Locality, error) {
	if setSize < 1 {
		return nil, fmt.Errorf("traffic: working-set size must be >= 1, got %d", setSize)
	}
	if !(reuse >= 0 && reuse <= 1) { // NaN fails both
		return nil, fmt.Errorf("traffic: reuse probability %g out of [0,1]", reuse)
	}
	if period < 0 {
		return nil, fmt.Errorf("traffic: redraw period must be >= 0 (0 = never), got %d", period)
	}
	return &Locality{
		Base:    base,
		SetSize: setSize,
		Reuse:   reuse,
		Period:  period,
		sets:    make([][]topology.Node, nodes),
		count:   make([]int, nodes),
	}, nil
}

// Name implements Pattern.
func (l *Locality) Name() string {
	return fmt.Sprintf("local(%s,set=%d,p=%.2f)", l.Base.Name(), l.SetSize, l.Reuse)
}

// Pick implements Pattern.
func (l *Locality) Pick(src topology.Node, rng *sim.RNG) topology.Node {
	s := int(src)
	if l.sets[s] == nil || (l.Period > 0 && l.count[s] >= l.Period) {
		l.redraw(src, rng)
	}
	l.count[s]++
	if rng.Bool(l.Reuse) {
		set := l.sets[s]
		return set[rng.Intn(len(set))]
	}
	return l.Base.Pick(src, rng)
}

func (l *Locality) redraw(src topology.Node, rng *sim.RNG) {
	s := int(src)
	set := make([]topology.Node, 0, l.SetSize)
	// The base pattern's support may hold fewer than SetSize distinct
	// destinations (e.g. a 16-entry working set on a 16-node network), so the
	// fill loop is attempt-bounded; the set is then simply smaller.
	for attempts := 0; len(set) < l.SetSize && attempts < 20*l.SetSize+100; attempts++ {
		d := l.Base.Pick(src, rng)
		dup := false
		for _, e := range set {
			if e == d {
				dup = true
				break
			}
		}
		if !dup {
			set = append(set, d)
		}
	}
	l.sets[s] = set
	l.count[s] = 0
}

// ---------------------------------------------------------------------------
// Message lengths.

// LengthDist draws message lengths in flits.
type LengthDist interface {
	Name() string
	Draw(rng *sim.RNG) int
	// Mean returns the expected length, used to convert flit loads to
	// message rates.
	Mean() float64
}

// Fixed always returns L.
type Fixed struct{ L int }

// Name implements LengthDist.
func (f Fixed) Name() string { return fmt.Sprintf("fixed(%d)", f.L) }

// Draw implements LengthDist.
func (f Fixed) Draw(*sim.RNG) int { return f.L }

// Mean implements LengthDist.
func (f Fixed) Mean() float64 { return float64(f.L) }

// Bimodal mixes short control messages and long data messages — the DSM
// workload shape from the paper's introduction (coherence commands vs data).
type Bimodal struct {
	Short, Long int
	PLong       float64
}

// Name implements LengthDist.
func (b Bimodal) Name() string {
	return fmt.Sprintf("bimodal(%d/%d,p=%.2f)", b.Short, b.Long, b.PLong)
}

// Draw implements LengthDist.
func (b Bimodal) Draw(rng *sim.RNG) int {
	if rng.Bool(b.PLong) {
		return b.Long
	}
	return b.Short
}

// Mean implements LengthDist.
func (b Bimodal) Mean() float64 {
	return float64(b.Short)*(1-b.PLong) + float64(b.Long)*b.PLong
}

// UniformLen draws uniformly in [Min, Max].
type UniformLen struct{ Min, Max int }

// Name implements LengthDist.
func (u UniformLen) Name() string { return fmt.Sprintf("ulen(%d..%d)", u.Min, u.Max) }

// Draw implements LengthDist.
func (u UniformLen) Draw(rng *sim.RNG) int { return u.Min + rng.Intn(u.Max-u.Min+1) }

// Mean implements LengthDist.
func (u UniformLen) Mean() float64 { return float64(u.Min+u.Max) / 2 }

// ---------------------------------------------------------------------------
// Generator.

// Generator produces Bernoulli open-loop traffic: each cycle each host
// independently starts a message with probability Load/Mean(length), giving
// an applied load of Load flits per host per cycle. The gaps between one
// host's starts are then geometric, so each host holds the tick of its next
// start in a calendar (calendar.go), and a Tick costs O(messages started),
// not O(hosts).
type Generator struct {
	// Pattern, Length and Load are fixed at construction.
	Pattern Pattern
	Length  LengthDist
	// Load is the applied load in flits/node/cycle.
	Load float64

	rng   *sim.RNG
	nodes int
	gaps  *gapSampler // nil if no host ever starts a message (rate 0)
	cal   calendar
}

// NewGenerator builds a generator for `nodes` nodes with its own RNG stream.
func NewGenerator(p Pattern, l LengthDist, load float64, nodes int, seed uint64) (*Generator, error) {
	if load < 0 || math.IsNaN(load) || math.IsInf(load, 0) {
		return nil, fmt.Errorf("traffic: load %g flits/node/cycle is not a finite non-negative number", load)
	}
	if l.Mean() <= 0 {
		return nil, fmt.Errorf("traffic: non-positive mean length")
	}
	g := &Generator{Pattern: p, Length: l, Load: load, rng: sim.NewRNG(seed), nodes: nodes}
	if rate := g.MsgRate(); rate > 0 { // a NaN rate starts nothing, as Bool(NaN) is false
		cut := uint64(1 << 53) // a rate >= 1 starts every host on every tick
		if rate < 1 {
			cut = sim.BoolCut(rate)
		}
		g.gaps = newGapSampler(cut)
		// The wheel spans 4 to 8 mean gaps (2^55/cut is 4/q), capped.
		g.cal.mask = 1<<min(bits.Len64(1<<55/cut), wheelMaxBits) - 1
	}
	return g, nil
}

// MsgRate returns the per-node message start probability per cycle.
func (g *Generator) MsgRate() float64 { return g.Load / g.Length.Mean() }

// Tick emits this cycle's new messages by calling send for each, in
// ascending host order: Pick and Draw for each starting host, which then
// draws the gap to its next start. The first Tick draws every host's first
// start, in host order, before it emits. A rate of 0 draws nothing.
func (g *Generator) Tick(send func(src, dst topology.Node, length int)) {
	if g.gaps == nil {
		return
	}
	c := &g.cal
	if c.due == nil {
		c.init(g.nodes)
		for h := range int32(g.nodes) {
			c.put(h, g.gaps.draw(g.rng)-1)
		}
	}
	now := c.now
	for _, h := range c.take() {
		src := topology.Node(h)
		dst := g.Pattern.Pick(src, g.rng)
		send(src, dst, g.Length.Draw(g.rng))
		c.put(h, now+g.gaps.draw(g.rng))
	}
}
