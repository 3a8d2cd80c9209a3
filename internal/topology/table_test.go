package topology

import "testing"

// The oracles below restate each family's geometry in closed form,
// independently of the table builder: per-slot (to, from, reverse), with
// to = -1 for a phantom slot, and on cubes per-dimension coordinates and
// minimal offsets. TestLinkTableMatchesOracle holds every table entry and
// every accessor built on the table against them.

type cubeOracle struct {
	radix []int
	wrap  bool
}

func (o cubeOracle) stride(d int) int {
	s := 1
	for _, k := range o.radix[:d] {
		s *= k
	}
	return s
}

func (o cubeOracle) coord(n, d int) int { return n / o.stride(d) % o.radix[d] }

// slot decodes LinkID = node*2*dims + 2*dim + dir by division and steps one
// hop along dim by modular arithmetic.
func (o cubeOracle) slot(id int) (to, from, rev int) {
	per := 2 * len(o.radix)
	from, dim, dir := id/per, id%per/2, id%2
	x, k := o.coord(from, dim), o.radix[dim]
	nx := x + 1 - 2*dir
	if nx < 0 || nx >= k {
		if !o.wrap {
			return -1, -1, -1
		}
		nx = (nx + k) % k
	}
	to = from + (nx-x)*o.stride(dim)
	return to, from, to*per + 2*dim + 1 - dir
}

// offset normalizes xb-xa into (-k/2, k/2] by repeated subtraction, the way
// the pre-table Cube did.
func (o cubeOracle) offset(a, b, d int) int {
	diff := o.coord(b, d) - o.coord(a, d)
	if !o.wrap {
		return diff
	}
	k := o.radix[d]
	for diff > k/2 {
		diff -= k
	}
	for diff < -(k-1)/2 {
		diff += k
	}
	return diff
}

// class is the Dally-Seitz class of the hop from a toward b along d: 0 while
// the ring's wraparound hop (leaving k-1 in Plus, 0 in Minus) lies strictly
// ahead on the minimal path, 1 otherwise.
func (o cubeOracle) class(a, b, d int) uint8 {
	x, off, k := o.coord(a, d), o.offset(a, b, d), o.radix[d]
	if off > 0 && x+off >= k && x != k-1 || off < 0 && x+off < 0 && x != 0 {
		return 0
	}
	return 1
}

// fullMeshSlot: node a's port p targets p (p < a) or p+1.
func fullMeshSlot(n int) func(id int) (to, from, rev int) {
	return func(id int) (to, from, rev int) {
		from, to = id/(n-1), id%(n-1)
		if to >= from {
			to++
		}
		back := from
		if from > to {
			back--
		}
		return to, from, to*(n-1) + back
	}
}

// fatTreeSlot restates the k-ary n-tree wiring from digit vectors: hosts
// 0..k^n-1 own one up link; switch <l, w> owns k ups (l > 0; port j rewrites
// digit l-1 to j) then k downs (port j rewrites digit l to j, or on leaf
// switches reaches host w + j*k^(n-1)).
func fatTreeSlot(k, n int) func(id int) (to, from, rev int) {
	pow := func(e int) int {
		p := 1
		for ; e > 0; e-- {
			p *= k
		}
		return p
	}
	hosts, span := pow(n), pow(n-1)
	sw := func(l, w int) int { return hosts + l*span + w }
	setDigit := func(w, i, d int) int { return w - w/pow(i)%k*pow(i) + d*pow(i) }
	type edge struct{ from, to int }
	var edges []edge
	for h := 0; h < hosts; h++ {
		edges = append(edges, edge{h, sw(n-1, h%span)})
	}
	for l := 0; l < n; l++ {
		for w := 0; w < span; w++ {
			for j := 0; l > 0 && j < k; j++ {
				edges = append(edges, edge{sw(l, w), sw(l-1, setDigit(w, l-1, j))})
			}
			for j := 0; j < k; j++ {
				if l == n-1 {
					edges = append(edges, edge{sw(l, w), w + j*span})
				} else {
					edges = append(edges, edge{sw(l, w), sw(l+1, setDigit(w, l, j))})
				}
			}
		}
	}
	return func(id int) (to, from, rev int) {
		e := edges[id]
		for r, back := range edges {
			if back.from == e.to && back.to == e.from {
				return e.to, e.from, r
			}
		}
		return e.to, e.from, -1
	}
}

func TestLinkTableMatchesOracle(t *testing.T) {
	cube := func(wrap bool, radix ...int) (Topology, func(int) (int, int, int)) {
		return MustCube(radix, wrap), cubeOracle{radix, wrap}.slot
	}
	type family struct {
		topo Topology
		slot func(id int) (to, from, rev int)
	}
	var fams []family
	add := func(topo Topology, slot func(int) (int, int, int)) { fams = append(fams, family{topo, slot}) }
	add(cube(true, 8, 8))
	add(cube(false, 8, 8))
	add(cube(true, 5, 3, 4))
	add(cube(false, 2, 2, 2, 2, 2, 2))
	add(MustFatTree(4, 2), fatTreeSlot(4, 2))
	add(MustFullMesh(16), fullMeshSlot(16))

	for _, f := range fams {
		topo, tab := f.topo, f.topo.Links()
		slots := topo.NumLinkSlots()
		if len(tab.To) != slots || len(tab.From) != slots || len(tab.Reverse) != slots {
			t.Fatalf("%s: table sized %d/%d/%d, want %d slots", topo.Name(), len(tab.To), len(tab.From), len(tab.Reverse), slots)
		}
		for id := 0; id < slots; id++ {
			to, from, rev := f.slot(id)
			if int(tab.To[id]) != to || int(tab.From[id]) != from || int(tab.Reverse[id]) != rev {
				t.Fatalf("%s slot %d: table (to %d, from %d, rev %d), oracle (%d, %d, %d)",
					topo.Name(), id, tab.To[id], tab.From[id], tab.Reverse[id], to, from, rev)
			}
			l, ok := topo.LinkByID(LinkID(id))
			if ok != (to >= 0) {
				t.Fatalf("%s slot %d: LinkByID ok=%v, oracle exists=%v", topo.Name(), id, ok, to >= 0)
			}
			if !ok {
				if l != (Link{}) {
					t.Fatalf("%s phantom slot %d resolved to %+v", topo.Name(), id, l)
				}
				continue
			}
			if l.ID != LinkID(id) || int(l.To) != to || int(l.From) != from {
				t.Fatalf("%s slot %d: LinkByID %+v, oracle to %d from %d", topo.Name(), id, l, to, from)
			}
			r, ok := ReverseLink(topo, l)
			if !ok || int(r) != rev {
				t.Fatalf("%s slot %d: ReverseLink (%d, %v), oracle %d", topo.Name(), id, r, ok, rev)
			}
			if back := tab.Reverse[rev]; int(back) != id {
				t.Fatalf("%s slot %d: reverse of reverse is %d", topo.Name(), id, back)
			}
		}
		for _, id := range []LinkID{Invalid, LinkID(slots), LinkID(slots + 7)} {
			if l, ok := topo.LinkByID(id); ok || l != (Link{}) {
				t.Errorf("%s: out-of-range link %d resolved to %+v", topo.Name(), id, l)
			}
			if r, ok := ReverseLink(topo, Link{ID: id}); ok || r != Invalid {
				t.Errorf("%s: out-of-range link %d has reverse %d", topo.Name(), id, r)
			}
		}

		c, isCube := topo.(*Cube)
		if !isCube {
			if tab.Dims != 0 || tab.Coords != nil {
				t.Errorf("%s: non-cube table carries coordinates", topo.Name())
			}
			continue
		}
		o := cubeOracle{c.radix, c.wrap}
		for id := 0; id < slots; id++ {
			per := 2 * c.Dims()
			n, dim, dir := Node(id/per), id%per/2, Dir(id%2)
			to, _, _ := o.slot(id)
			if got, ok := c.OutSlot(n, 2*dim+int(dir)); int(got) != id || ok != (to >= 0) {
				t.Fatalf("%s: OutSlot(%d,%d) = (%d,%v), oracle (%d,%v)", topo.Name(), n, 2*dim+int(dir), got, ok, id, to >= 0)
			}
			if nb, ok := c.Neighbor(n, dim, dir); ok != (to >= 0) || (ok && int(nb) != to) {
				t.Fatalf("%s: Neighbor(%d,%d,%v) = (%d,%v), oracle %d", topo.Name(), n, dim, dir, nb, ok, to)
			}
		}
		for a := 0; a < c.Nodes(); a++ {
			for d := 0; d < c.Dims(); d++ {
				if got, want := c.Coord(Node(a), make([]int, c.Dims()))[d], o.coord(a, d); got != want || int(tab.Coords[a*tab.Dims+d]) != want {
					t.Fatalf("%s: coordinate of %d along %d = %d (table %d), oracle %d",
						topo.Name(), a, d, got, tab.Coords[a*tab.Dims+d], want)
				}
				for b := 0; b < c.Nodes(); b++ {
					if got, want := tab.Offset(Node(a), Node(b), d), o.offset(a, b, d); got != want {
						t.Fatalf("%s: offset %d->%d along %d = %d, oracle %d", topo.Name(), a, b, d, got, want)
					}
					if got, want := tab.Cell(Node(a), Node(b), d).Class, o.class(a, b, d); got != want {
						t.Fatalf("%s: dateline class %d->%d along %d = %d, oracle %d", topo.Name(), a, b, d, got, want)
					}
				}
			}
		}
	}
}

// TestCubeSizeGates: link slots are 32-bit in the table and each dimension
// carries k*k ring cells, so NewCube refuses shapes past either bound.
func TestCubeSizeGates(t *testing.T) {
	if _, err := NewCube([]int{1<<16 + 1}, false); err == nil {
		t.Error("radix 65537 accepted")
	}
	if _, err := NewCube([]int{MaxRadix + 1}, true); err == nil {
		t.Errorf("radix %d accepted: its ring-cell table would hold %d cells", MaxRadix+1, (MaxRadix+1)*(MaxRadix+1))
	}
	if _, err := NewCube([]int{MaxRadix}, true); err != nil {
		t.Errorf("radix %d refused: %v", MaxRadix, err)
	}
	if _, err := NewHypercube(40); err == nil {
		t.Error("2^40-node hypercube accepted")
	}
}

var benchSink int

// BenchmarkCubeLinkByID resolves every slot of a 16x16 torus in turn.
func BenchmarkCubeLinkByID(b *testing.B) {
	c := MustCube([]int{16, 16}, true)
	mask := c.NumLinkSlots() - 1 // 1024 slots: a power of two
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, _ := c.LinkByID(LinkID(i & mask))
		benchSink += int(l.To)
	}
}

// BenchmarkRingCell reads the ring cell of every node pair of a 16x16 torus
// in turn, alternating dimensions.
func BenchmarkRingCell(b *testing.B) {
	tab := MustCube([]int{16, 16}, true).Links()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += int(tab.Cell(Node(i&255), Node(i>>8&255), i>>16&1).Off)
	}
}
