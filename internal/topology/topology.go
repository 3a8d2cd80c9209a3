// Package topology models the interconnection networks the simulator runs
// on. The paper targets direct k-ary n-cubes (meshes and tori) and
// hypercubes, the "low dimensional topologies" of state-of-the-art machines
// circa the paper (section 1); those are the Cube family, which additionally
// provides node/coordinate conversion and the per-dimension signed offsets
// that the routing probe carries in its Xi-offset fields (Figure 4). Two
// further families exercise the protocols' topology independence: FatTree
// (k-ary n-tree, up*/down* routing) and FullMesh (direct all-to-all, VC-free
// deadlock-free routing).
//
// The core Topology interface is deliberately shape-agnostic: node degree,
// link-slot layout, distance and diameter are owned by the implementation.
// Cube-specific coordinate geometry lives behind the Geometry extension,
// which consumers must type-assert for (cube-only routing functions do this
// in their constructors and fail cleanly on other families).
package topology

import (
	"fmt"
	"math"
	"strings"
)

// Node identifies a router/processor pair. Nodes are numbered 0..Nodes()-1 in
// row-major coordinate order (dimension 0 varies fastest).
type Node int

// Dir is a direction along a dimension.
type Dir int

const (
	// Plus moves toward increasing coordinate.
	Plus Dir = 0
	// Minus moves toward decreasing coordinate.
	Minus Dir = 1
)

// Opposite returns the reverse direction.
func (d Dir) Opposite() Dir { return 1 - d }

func (d Dir) String() string {
	if d == Plus {
		return "+"
	}
	return "-"
}

// LinkID identifies a unidirectional physical link slot. The slot layout is
// topology-owned: node n's outgoing slots are the contiguous range
// [SlotBase(n), SlotBase(n)+OutDegree(n)), one per local output port. Some
// slots may exist as IDs but carry no physical link (mesh boundary ports);
// LinkByID reports those with ok == false. On cubes the layout is the
// historical LinkID = int(node)*2*dims + 2*dim + int(dir) (port 2*dim+dir),
// kept bit-for-bit so cube runs are unchanged.
type LinkID int

// Invalid is the sentinel for "no link".
const Invalid LinkID = -1

// Link describes one unidirectional physical link. Dim and Dir are
// family-defined labels: on cubes they are the dimension travelled and the
// coordinate direction; on fat trees Dim is the tree level boundary crossed
// and Dir is Plus for upward (toward the roots) and Minus for downward
// hops; on full meshes Dim is 0 and Dir is Plus.
type Link struct {
	ID   LinkID
	From Node
	To   Node
	Dim  int
	Dir  Dir
	// Wrap reports whether this is a torus wraparound link (it crosses the
	// dateline of its dimension). Routing schemes that need datelines — the
	// two-class virtual channel scheme on tori — key off this flag.
	Wrap bool
}

// Topology is the shape-agnostic read-only interface the rest of the
// simulator consumes: node and host counts, the per-node link-slot layout,
// and hop distances. Anything needing cube coordinates must type-assert the
// Geometry extension.
type Topology interface {
	// Nodes returns the number of network vertices (routers). On indirect
	// topologies this includes switch-only vertices with no processor.
	Nodes() int
	// Hosts returns the number of processor-bearing nodes. Hosts are always
	// numbered 0..Hosts()-1; traffic originates and terminates only there.
	// On direct topologies (cubes, full mesh) Hosts() == Nodes().
	Hosts() int
	// OutDegree returns the number of outgoing link slots (ports) at n.
	// Ports are indexed 0..OutDegree(n)-1; some may be phantom slots with no
	// physical link (mesh boundaries).
	OutDegree(n Node) int
	// MaxOutDegree returns the maximum OutDegree over all nodes — the bound
	// per-node scratch arenas are sized from.
	MaxOutDegree() int
	// SlotBase returns the first LinkID of node n's contiguous slot range;
	// its ports occupy [SlotBase(n), SlotBase(n)+OutDegree(n)).
	SlotBase(n Node) int
	// OutSlot returns the outgoing link slot of n's port (0-based). The ID
	// is always well-formed; ok reports whether the physical link exists.
	OutSlot(n Node, port int) (id LinkID, ok bool)
	// LinkByID resolves a link slot. ok is false for non-existent phantom
	// slots and out-of-range IDs.
	LinkByID(id LinkID) (Link, bool)
	// NumLinkSlots returns the total slot count (the sum of OutDegree over
	// all nodes), the size of dense per-link arrays.
	NumLinkSlots() int
	// Links returns the precomputed link table; per-hop code reads its
	// slices instead of calling LinkByID.
	Links() *LinkTable
	// Distance returns the minimal hop count between a and b.
	Distance(a, b Node) int
	// Diameter returns the maximum Distance over host pairs — the hop bound
	// livelock proofs and drain deadlines scale with.
	Diameter() int
	// Name returns a human-readable description, e.g. "8-ary 2-cube (torus)".
	Name() string
}

// Geometry is the cube-coordinate extension of Topology: per-dimension
// radixes, coordinate conversion, and the signed minimal offsets the paper's
// probe carries in its Xi-offset fields (Figure 4). Only the Cube family
// implements it; cube-specific routing functions assert it in their
// constructors.
type Geometry interface {
	Topology
	// Dims returns the number of dimensions.
	Dims() int
	// Radix returns the number of nodes along dimension d.
	Radix(d int) int
	// Wrap reports whether the network has wraparound (torus) links.
	Wrap() bool
	// Coord writes the coordinates of n into out (len >= Dims) and returns it.
	Coord(n Node, out []int) []int
	// CoordAlong returns the coordinate of n in dimension d without touching
	// any caller-provided scratch — the zero-allocation accessor hot paths
	// (dateline classes, routing tables) use instead of Coord.
	CoordAlong(n Node, d int) int
	// NodeAt returns the node at the given coordinates.
	NodeAt(coord []int) Node
	// Neighbor returns the node reached from n along (dim, dir), and whether
	// such a link exists (always true on a torus, false at mesh boundaries).
	Neighbor(n Node, dim int, dir Dir) (Node, bool)
	// OutLink returns the outgoing link slot of n along (dim, dir). The ID is
	// always well-formed; ok reports whether the physical link exists.
	OutLink(n Node, dim int, dir Dir) (id LinkID, ok bool)
	// Offsets writes the per-dimension signed minimal offsets from `from` to
	// `to` into out (len >= Dims) and returns it. These are the probe's
	// Xi-offset fields: moving one hop in Plus decreases a positive offset by
	// one (modulo wrap bookkeeping). On tori, ties at distance k/2 take Plus.
	Offsets(from, to Node, out []int) []int
	// OffsetAlong returns the single-dimension entry of Offsets without a
	// scratch slice, for allocation-free routing decisions.
	OffsetAlong(from, to Node, d int) int
}

// Cube is a k-ary n-cube: radixes per dimension, with or without wraparound.
// It implements Topology. A hypercube is NewHypercube(n) = 2-ary n-cube
// without wrap (with radix 2 the two directions coincide, so mesh form
// avoids double links).
type Cube struct {
	radix []int
	wrap  bool
	nodes int
	name  string
	tab   *LinkTable
}

// NewCube constructs a k-ary n-cube. radix lists the nodes per dimension
// (all >= 2); wrap selects torus (true) or mesh (false).
func NewCube(radix []int, wrap bool) (*Cube, error) {
	if len(radix) == 0 {
		return nil, fmt.Errorf("topology: need at least one dimension")
	}
	nodes := 1
	for d, k := range radix {
		if k < 2 || k > 1<<16 {
			return nil, fmt.Errorf("topology: dimension %d has radix %d, need 2..65536", d, k)
		}
		if nodes *= k; nodes*2*len(radix) > math.MaxInt32 {
			return nil, fmt.Errorf("topology: cube exceeds the 2^31 link-slot gate at dimension %d", d)
		}
	}
	kind := "mesh"
	if wrap {
		kind = "torus"
	}
	uniform := true
	for _, k := range radix[1:] {
		if k != radix[0] {
			uniform = false
		}
	}
	var name string
	if uniform {
		name = fmt.Sprintf("%d-ary %d-cube (%s)", radix[0], len(radix), kind)
	} else {
		parts := make([]string, len(radix))
		for i, k := range radix {
			parts[i] = fmt.Sprint(k)
		}
		name = fmt.Sprintf("%s %s", strings.Join(parts, "x"), kind)
	}
	c := &Cube{radix: append([]int(nil), radix...), wrap: wrap, nodes: nodes, name: name}
	c.tab = newCubeTable(c.radix, nodes, wrap)
	return c, nil
}

// MustCube is NewCube that panics on error, for tests and fixed configs.
func MustCube(radix []int, wrap bool) *Cube {
	c, err := NewCube(radix, wrap)
	if err != nil {
		panic(err)
	}
	return c
}

// NewHypercube returns an n-dimensional binary hypercube (2^n nodes).
func NewHypercube(n int) (*Cube, error) {
	radix := make([]int, n)
	for i := range radix {
		radix[i] = 2
	}
	c, err := NewCube(radix, false)
	if err != nil {
		return nil, err
	}
	c.name = fmt.Sprintf("%d-dimensional hypercube", n)
	return c, nil
}

// Nodes implements Topology.
func (c *Cube) Nodes() int { return c.nodes }

// Hosts implements Topology: every cube node carries a processor.
func (c *Cube) Hosts() int { return c.nodes }

// OutDegree implements Topology: 2 slots per dimension at every node (mesh
// boundary slots included as phantoms, preserving the historical layout).
func (c *Cube) OutDegree(Node) int { return 2 * len(c.radix) }

// MaxOutDegree implements Topology.
func (c *Cube) MaxOutDegree() int { return 2 * len(c.radix) }

// SlotBase implements Topology.
func (c *Cube) SlotBase(n Node) int { return int(n) * 2 * len(c.radix) }

// OutSlot implements Topology: port 2*dim+dir, matching OutLink.
func (c *Cube) OutSlot(n Node, port int) (LinkID, bool) {
	if port < 0 || port >= 2*len(c.radix) {
		return Invalid, false
	}
	id := int(n)*2*len(c.radix) + port
	return LinkID(id), c.tab.To[id] >= 0
}

// Diameter implements Topology: the closed form sum over dimensions of
// k/2 (torus rings) or k-1 (mesh lines).
func (c *Cube) Diameter() int {
	d := 0
	for _, k := range c.radix {
		if c.wrap {
			d += k / 2
		} else {
			d += k - 1
		}
	}
	return d
}

// Dims implements Geometry.
func (c *Cube) Dims() int { return len(c.radix) }

// Radix implements Geometry.
func (c *Cube) Radix(d int) int { return c.radix[d] }

// Wrap implements Geometry.
func (c *Cube) Wrap() bool { return c.wrap }

// Name implements Topology.
func (c *Cube) Name() string { return c.name }

// Links implements Topology.
func (c *Cube) Links() *LinkTable { return c.tab }

// Coord implements Geometry.
func (c *Cube) Coord(n Node, out []int) []int {
	for d := range c.radix {
		out[d] = c.CoordAlong(n, d)
	}
	return out[:len(c.radix)]
}

// NodeAt implements Geometry.
func (c *Cube) NodeAt(coord []int) Node {
	v := 0
	for d := len(c.radix) - 1; d >= 0; d-- {
		v = v*c.radix[d] + coord[d]
	}
	return Node(v)
}

// CoordAlong implements Geometry without allocating.
func (c *Cube) CoordAlong(n Node, d int) int {
	return int(c.tab.Coords[int(n)*len(c.radix)+d])
}

// Neighbor implements Geometry.
func (c *Cube) Neighbor(n Node, dim int, dir Dir) (Node, bool) {
	to := c.tab.To[int(n)*2*len(c.radix)+2*dim+int(dir)]
	if to < 0 {
		return 0, false
	}
	return Node(to), true
}

// OutLink implements Geometry.
func (c *Cube) OutLink(n Node, dim int, dir Dir) (LinkID, bool) {
	id := int(n)*2*len(c.radix) + 2*dim + int(dir)
	return LinkID(id), c.tab.To[id] >= 0
}

// NumLinkSlots implements Topology.
func (c *Cube) NumLinkSlots() int { return len(c.tab.To) }

// LinkByID implements Topology.
func (c *Cube) LinkByID(id LinkID) (Link, bool) {
	if !c.tab.Exists(id) {
		return Link{}, false
	}
	from, to := int(c.tab.From[id]), int(c.tab.To[id])
	port := int(id) - from*2*len(c.radix)
	dim, dir := port>>1, Dir(port&1)
	x := c.CoordAlong(Node(from), dim)
	wrapLink := c.wrap && ((dir == Plus && x == c.radix[dim]-1) || (dir == Minus && x == 0))
	return Link{ID: id, From: Node(from), To: Node(to), Dim: dim, Dir: dir, Wrap: wrapLink}, true
}

// Distance implements Topology.
func (c *Cube) Distance(a, b Node) int {
	d := 0
	for dim := range c.radix {
		d += absInt(c.tab.Offset(a, b, dim))
	}
	return d
}

// OffsetAlong implements Geometry.
func (c *Cube) OffsetAlong(from, to Node, d int) int { return c.tab.Offset(from, to, d) }

// Offsets implements Geometry.
func (c *Cube) Offsets(from, to Node, out []int) []int {
	for dim := range c.radix {
		out[dim] = c.tab.Offset(from, to, dim)
	}
	return out[:len(c.radix)]
}

// AllLinks returns every existing physical link, in LinkID order — the
// canonical enumeration fault injection, the dependency-graph checker and
// tests draw from (phantom slots never appear).
func AllLinks(t Topology) []Link {
	var links []Link
	for id := 0; id < t.NumLinkSlots(); id++ {
		if l, ok := t.LinkByID(LinkID(id)); ok {
			links = append(links, l)
		}
	}
	return links
}

// ReverseLink returns the link slot running opposite to l (from l.To back to
// l.From), the channel a probe excludes as an immediate U-turn. Every family
// shipped here has symmetric links, so ok is false only for malformed input.
func ReverseLink(t Topology, l Link) (LinkID, bool) {
	tab := t.Links()
	if !tab.Exists(l.ID) {
		return Invalid, false
	}
	return LinkID(tab.Reverse[l.ID]), true
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
