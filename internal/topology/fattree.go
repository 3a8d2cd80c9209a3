package topology

import "fmt"

// FatTree is a k-ary n-tree (an m-port n-tree with m = 2k): k^n hosts at the
// bottom, n levels of k^(n-1) switches above them, every switch with k links
// down and (except the roots) k links up. It is the constant-bisection
// indirect network of Petrini & Vanneschi, the natural home of up*/down*
// routing (the sst-workbench routing.c exemplar).
//
// Naming scheme: host p is identified by its n base-k digits p_0..p_(n-1)
// (p = sum p_i * k^i); switch <l, w> by its level l (0 = roots, n-1 = leaf
// switches) and n-1 digits w_0..w_(n-2). Switch <l, w> connects down to the
// k switches <l+1, w'> whose digits agree with w except digit l (leaf
// switches connect down to the k hosts sharing digits 0..n-2), so the
// subtree of <l, w> is exactly the hosts agreeing with w on digits 0..l-1 —
// the invariant up*/down* routing's "is the destination below me" test uses.
//
// Hosts are numbered first (0..k^n-1), switches after them, which is what
// lets traffic generation, proof seeding and delivery checks range over
// Hosts() without knowing the family.
type FatTree struct {
	k, n   int
	hosts  int // k^n
	span   int // k^(n-1), switches per level
	nodes  int
	name   string
	levels []int8 // per node: n for hosts, l for switches

	// Slot layout: hosts own 1 up slot each, switches k down plus (l > 0)
	// k up slots, ups first. All slots are real links.
	slotBase []int32
	slots    int
	maxDeg   int
	linkFrom []int32
	linkTo   []int32
	linkDim  []int8
	linkDir  []uint8
	linkRev  []int32
	tab      LinkTable // shares linkTo/linkFrom/linkRev
}

// NewFatTree constructs a k-ary n-tree with k >= 2 links per direction and
// n >= 1 levels.
func NewFatTree(k, n int) (*FatTree, error) {
	if k < 2 {
		return nil, fmt.Errorf("topology: fat tree needs arity k >= 2, got %d", k)
	}
	if n < 1 {
		return nil, fmt.Errorf("topology: fat tree needs n >= 1 levels, got %d", n)
	}
	hosts, span := 1, 1
	for i := 0; i < n; i++ {
		hosts *= k
		if hosts > 1<<20 {
			return nil, fmt.Errorf("topology: %d-ary %d-tree exceeds the 2^20 host gate", k, n)
		}
	}
	span = hosts / k
	t := &FatTree{
		k: k, n: n, hosts: hosts, span: span,
		nodes: hosts + n*span,
		name:  fmt.Sprintf("%d-ary %d-tree (fat tree)", k, n),
	}
	t.levels = make([]int8, t.nodes)
	t.slotBase = make([]int32, t.nodes+1)
	base := 0
	for v := 0; v < t.nodes; v++ {
		t.slotBase[v] = int32(base)
		if v < hosts {
			t.levels[v] = int8(n)
			base++ // one up link to the leaf switch
			continue
		}
		l := (v - hosts) / span
		t.levels[v] = int8(l)
		deg := t.k // down links
		if l > 0 {
			deg += t.k // up links
		}
		base += deg
	}
	t.slotBase[t.nodes] = int32(base)
	t.slots = base
	t.maxDeg = t.k
	if n > 1 {
		t.maxDeg = 2 * t.k
	}

	t.linkFrom = make([]int32, t.slots)
	t.linkTo = make([]int32, t.slots)
	t.linkDim = make([]int8, t.slots)
	t.linkDir = make([]uint8, t.slots)
	t.linkRev = make([]int32, t.slots)
	for v := 0; v < t.nodes; v++ {
		for port := 0; port < t.OutDegree(Node(v)); port++ {
			id := int(t.slotBase[v]) + port
			to, dim, dir := t.portTarget(Node(v), port)
			t.linkFrom[id] = int32(v)
			t.linkTo[id] = int32(to)
			t.linkDim[id] = int8(dim)
			t.linkDir[id] = uint8(dir)
		}
	}
	// Reverse mapping: every link has exactly one opposite (same endpoints,
	// swapped); resolve it by scanning the target's short port range.
	for id := 0; id < t.slots; id++ {
		to := Node(t.linkTo[id])
		rev := int32(-1)
		for port := 0; port < t.OutDegree(to); port++ {
			cand := int(t.slotBase[to]) + port
			if t.linkTo[cand] == t.linkFrom[id] && t.linkDim[cand] == t.linkDim[id] {
				rev = int32(cand)
				break
			}
		}
		if rev < 0 {
			return nil, fmt.Errorf("topology: fat tree link %d has no reverse (internal bug)", id)
		}
		t.linkRev[id] = rev
	}
	t.tab = LinkTable{To: t.linkTo, From: t.linkFrom, Reverse: t.linkRev}
	return t, nil
}

// MustFatTree is NewFatTree that panics on error, for tests.
func MustFatTree(k, n int) *FatTree {
	t, err := NewFatTree(k, n)
	if err != nil {
		panic(err)
	}
	return t
}

// portTarget resolves port of node v to (target, level boundary, direction).
// Dim labels the digit index the hop rewrites (the level boundary crossed);
// Dir is Plus going up (toward the roots), Minus going down.
func (t *FatTree) portTarget(v Node, port int) (Node, int, Dir) {
	if int(v) < t.hosts {
		// Host up link to leaf switch <n-1, digits 0..n-2>.
		return Node(t.hosts + (t.n-1)*t.span + int(v)%t.span), t.n - 1, Plus
	}
	l, wv := t.switchAt(v)
	if l > 0 && port < t.k {
		// Up port j: rewrite digit l-1 to j.
		return t.switchID(l-1, t.setDigit(wv, l-1, port)), l - 1, Plus
	}
	j := port
	if l > 0 {
		j -= t.k
	}
	if l == t.n-1 {
		// Leaf down port j: host with digits 0..n-2 = w, digit n-1 = j.
		return Node(wv + j*t.span), t.n - 1, Minus
	}
	// Down port j: rewrite digit l to j.
	return t.switchID(l+1, t.setDigit(wv, l, j)), l, Minus
}

// switchAt decomposes a switch node into (level, digit value).
func (t *FatTree) switchAt(v Node) (l, wv int) {
	s := int(v) - t.hosts
	return s / t.span, s % t.span
}

// switchID composes a switch node from (level, digit value).
func (t *FatTree) switchID(l, wv int) Node { return Node(t.hosts + l*t.span + wv) }

// setDigit returns wv with base-k digit i replaced by d.
func (t *FatTree) setDigit(wv, i, d int) int {
	p := 1
	for j := 0; j < i; j++ {
		p *= t.k
	}
	return wv + (d-(wv/p)%t.k)*p
}

// digit returns base-k digit i of v.
func (t *FatTree) digit(v, i int) int {
	for j := 0; j < i; j++ {
		v /= t.k
	}
	return v % t.k
}

// Nodes implements Topology.
func (t *FatTree) Nodes() int { return t.nodes }

// Hosts implements Topology.
func (t *FatTree) Hosts() int { return t.hosts }

// Name implements Topology.
func (t *FatTree) Name() string { return t.name }

// NumLinkSlots implements Topology.
func (t *FatTree) NumLinkSlots() int { return t.slots }

// MaxOutDegree implements Topology.
func (t *FatTree) MaxOutDegree() int { return t.maxDeg }

// OutDegree implements Topology.
func (t *FatTree) OutDegree(n Node) int {
	return int(t.slotBase[int(n)+1] - t.slotBase[n])
}

// SlotBase implements Topology.
func (t *FatTree) SlotBase(n Node) int { return int(t.slotBase[n]) }

// OutSlot implements Topology: every fat-tree slot is a real link.
func (t *FatTree) OutSlot(n Node, port int) (LinkID, bool) {
	if port < 0 || port >= t.OutDegree(n) {
		return Invalid, false
	}
	return LinkID(int(t.slotBase[n]) + port), true
}

// LinkByID implements Topology.
func (t *FatTree) LinkByID(id LinkID) (Link, bool) {
	if id < 0 || int(id) >= t.slots {
		return Link{}, false
	}
	return Link{
		ID:   id,
		From: Node(t.linkFrom[id]),
		To:   Node(t.linkTo[id]),
		Dim:  int(t.linkDim[id]),
		Dir:  Dir(t.linkDir[id]),
	}, true
}

// Links implements Topology.
func (t *FatTree) Links() *LinkTable { return &t.tab }

// Level returns the tree level of v: 0 for roots, n-1 for leaf switches, n
// for hosts.
func (t *FatTree) Level(v Node) int { return int(t.levels[v]) }

// Levels returns n, the number of switch levels.
func (t *FatTree) Levels() int { return t.n }

// Arity returns k, the links per direction.
func (t *FatTree) Arity() int { return t.k }

// InSubtree reports whether host h lies below v (v a switch: digit agreement
// on indices < level; v a host: identity).
func (t *FatTree) InSubtree(v Node, h Node) bool {
	if int(v) < t.hosts {
		return v == h
	}
	l, wv := t.switchAt(v)
	for i := 0; i < l; i++ {
		if t.digit(wv, i) != t.digit(int(h), i) {
			return false
		}
	}
	return true
}

// DownPort returns the port of switch v whose down link leads toward host h.
// The caller must have established InSubtree(v, h).
func (t *FatTree) DownPort(v Node, h Node) int {
	l, _ := t.switchAt(v)
	base := 0
	if l > 0 {
		base = t.k // ups come first
	}
	if l == t.n-1 {
		return base + t.digit(int(h), t.n-1)
	}
	return base + t.digit(int(h), l)
}

// NumUpPorts returns the count of up ports at v (ports 0..count-1): 1 for a
// host, 0 for a root switch, k otherwise.
func (t *FatTree) NumUpPorts(v Node) int {
	switch {
	case int(v) < t.hosts:
		return 1
	case t.Level(v) == 0:
		return 0
	default:
		return t.k
	}
}

// Distance implements Topology with the closed form for k-ary n-trees: a
// path from a to b must span the level range from min(level, lowest
// differing digit) up to max(level, highest differing digit boundary), and
// one optimal path exists that sweeps that range once with a single
// direction change.
func (t *FatTree) Distance(a, b Node) int {
	if a == b {
		return 0
	}
	la, lb := int(t.levels[a]), int(t.levels[b])
	da, db := t.digitsOf(a), t.digitsOf(b)
	minD, maxD := -1, -1
	// Compare digit indices defined for both endpoints: 0..n-2 always, and
	// index n-1 only between two hosts (a switch has no digit n-1; the host
	// link crossing boundary n-1 is already forced by reaching level n).
	top := t.n - 1
	if la == t.n && lb == t.n {
		top = t.n
	}
	for i := 0; i < top; i++ {
		if t.digit(da, i) != t.digit(db, i) {
			if minD < 0 {
				minD = i
			}
			maxD = i
		}
	}
	lo := minInt(la, lb)
	if minD >= 0 && minD < lo {
		lo = minD
	}
	hi := maxInt(la, lb)
	if maxD >= 0 && maxD+1 > hi {
		hi = maxD + 1
	}
	down := (la - lo) + (hi - lb) // descend-last order
	up := (hi - la) + (lb - lo)   // ascend-last order
	return (hi - lo) + minInt(down, up)
}

// digitsOf returns the digit value of v (host value, or switch wv).
func (t *FatTree) digitsOf(v Node) int {
	if int(v) < t.hosts {
		return int(v)
	}
	_, wv := t.switchAt(v)
	return wv
}

// Diameter implements Topology: hosts disagreeing in digit 0 are 2n apart
// (up to a root, down the other side).
func (t *FatTree) Diameter() int { return 2 * t.n }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
