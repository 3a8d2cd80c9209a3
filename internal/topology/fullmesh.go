package topology

import "fmt"

// FullMesh is the direct all-to-all network: every node has a dedicated
// unidirectional link to every other node. Diameter 1, degree N-1. Its
// natural deadlock-free routing is the VC-free scheme of Cano et al. (HOTI
// 2025): direct delivery always works, and the optional 2-hop adaptivity is
// restricted to label-increasing link pairs so the channel dependency graph
// stays acyclic with a single virtual channel (see routing.NewVCFree).
//
// Slot layout: node a owns slots [a*(N-1), (a+1)*(N-1)); port p targets node
// p for p < a and p+1 otherwise (self-links do not exist). Every slot is a
// real link.
type FullMesh struct {
	n    int
	name string
	tab  LinkTable
}

// NewFullMesh constructs an all-to-all network over n nodes.
func NewFullMesh(n int) (*FullMesh, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: full mesh needs >= 2 nodes, got %d", n)
	}
	if n > 1<<12 {
		return nil, fmt.Errorf("topology: full mesh over %d nodes exceeds the 2^12 gate (%d links)", n, n*(n-1))
	}
	m := &FullMesh{n: n, name: fmt.Sprintf("%d-node full mesh", n)}
	slots := m.NumLinkSlots()
	m.tab = LinkTable{To: make([]int32, slots), From: make([]int32, slots), Reverse: make([]int32, slots)}
	for id := 0; id < slots; id++ {
		l, _ := m.LinkByID(LinkID(id))
		m.tab.To[id], m.tab.From[id] = int32(l.To), int32(l.From)
		m.tab.Reverse[id] = int32(m.LinkTo(l.To, l.From))
	}
	return m, nil
}

// MustFullMesh is NewFullMesh that panics on error, for tests.
func MustFullMesh(n int) *FullMesh {
	t, err := NewFullMesh(n)
	if err != nil {
		panic(err)
	}
	return t
}

// Nodes implements Topology.
func (m *FullMesh) Nodes() int { return m.n }

// Hosts implements Topology: every node carries a processor.
func (m *FullMesh) Hosts() int { return m.n }

// Name implements Topology.
func (m *FullMesh) Name() string { return m.name }

// OutDegree implements Topology.
func (m *FullMesh) OutDegree(Node) int { return m.n - 1 }

// MaxOutDegree implements Topology.
func (m *FullMesh) MaxOutDegree() int { return m.n - 1 }

// NumLinkSlots implements Topology.
func (m *FullMesh) NumLinkSlots() int { return m.n * (m.n - 1) }

// SlotBase implements Topology.
func (m *FullMesh) SlotBase(n Node) int { return int(n) * (m.n - 1) }

// OutSlot implements Topology: every full-mesh slot is a real link.
func (m *FullMesh) OutSlot(n Node, port int) (LinkID, bool) {
	if port < 0 || port >= m.n-1 {
		return Invalid, false
	}
	return LinkID(int(n)*(m.n-1) + port), true
}

// LinkTo returns the slot of the direct link from a to b (a != b).
func (m *FullMesh) LinkTo(a, b Node) LinkID {
	port := int(b)
	if b > a {
		port--
	}
	return LinkID(int(a)*(m.n-1) + port)
}

// LinkByID implements Topology.
func (m *FullMesh) LinkByID(id LinkID) (Link, bool) {
	if id < 0 || int(id) >= m.NumLinkSlots() {
		return Link{}, false
	}
	from := int(id) / (m.n - 1)
	to := int(id) % (m.n - 1)
	if to >= from {
		to++
	}
	return Link{ID: id, From: Node(from), To: Node(to), Dim: 0, Dir: Plus}, true
}

// Links implements Topology.
func (m *FullMesh) Links() *LinkTable { return &m.tab }

// Distance implements Topology.
func (m *FullMesh) Distance(a, b Node) int {
	if a == b {
		return 0
	}
	return 1
}

// Diameter implements Topology.
func (m *FullMesh) Diameter() int { return 1 }
