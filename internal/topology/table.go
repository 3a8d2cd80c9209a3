package topology

// LinkTable is the immutable geometry every topology precomputes once at
// construction — the software form of the paper's per-router registers: what
// a probe or header needs at a hop is a load, not arithmetic. Hot loops
// (pcs.outputs, wormhole allocation, the cube routing functions) hold its
// slices directly; the Cube accessors read it too, so closed-form coordinate
// arithmetic exists only in newCubeTable. Treat every slice as read-only.
type LinkTable struct {
	// To, From and Reverse are indexed by LinkID: the link's sink, its source
	// and the slot running the opposite way. All three are -1 on a phantom
	// slot (mesh boundary port).
	To, From, Reverse []int32

	// Cube geometry; zero on the other families. Coords[node*Dims+d] is the
	// node's coordinate along d.
	Coords []uint16
	Dims   int
	Radix  []int
	Wrap   bool

	// Rings holds one table of ring cells per dimension:
	// Rings[d][a*Radix[d]+b] is the cell of coordinate pair (a, b) along d.
	Rings [][]RingCell
}

// RingCell is the per-dimension routing decision for one coordinate pair
// (a, b) of a cube: the Xi-offset field of the paper's probe (Figure 4) and
// the dateline class of the next hop toward b.
type RingCell struct {
	// Off is the signed minimal offset from a to b: positive means travel
	// in Plus, 0 means the coordinate is corrected. On tori it lies in
	// (-k/2, k/2], so a tie at distance k/2 (k even) resolves to Plus.
	Off int16
	// Class is the Dally-Seitz virtual channel class of the hop from a: 0
	// while the wraparound link of this (dimension, direction) ring still
	// lies strictly ahead, 1 once this hop is the wraparound, it is behind,
	// or the path never crosses it (always, on meshes).
	Class uint8
}

// Dir returns the direction of the hop the cell asks for (Plus when the
// coordinate is already corrected).
func (c RingCell) Dir() Dir {
	if c.Off < 0 {
		return Minus
	}
	return Plus
}

// Cell returns the ring cell of the pair (a's coordinate, b's coordinate)
// along dimension d of a cube.
func (t *LinkTable) Cell(a, b Node, d int) RingCell {
	return t.Rings[d][int(t.Coords[int(a)*t.Dims+d])*t.Radix[d]+int(t.Coords[int(b)*t.Dims+d])]
}

// Exists reports whether id names a physical link: in range and not a
// phantom slot.
func (t *LinkTable) Exists(id LinkID) bool {
	return id >= 0 && int(id) < len(t.To) && t.To[id] >= 0
}

// Slot returns the link slot leaving cube node n along (d, dir), which is
// a phantom slot at a mesh boundary.
func (t *LinkTable) Slot(n Node, d int, dir Dir) LinkID {
	return LinkID((int(n)*t.Dims+d)*2 + int(dir))
}

// Offset returns the signed minimal offset from a to b along dimension d of
// a cube (RingCell.Off).
func (t *LinkTable) Offset(a, b Node, d int) int { return int(t.Cell(a, b, d).Off) }

// newCubeTable tabulates a k-ary n-cube. Nodes are visited in number order
// with an odometer over the coordinates (dimension 0 fastest), so the only
// closed forms left are the slot layout node*2*dims + 2*dim + dir and the
// neighbour step along one dimension's stride.
func newCubeTable(radix []int, nodes int, wrap bool) *LinkTable {
	dims := len(radix)
	stride := make([]int, dims) // stride[d] = product of radix[0..d-1]
	for d, s := 0, 1; d < dims; d++ {
		stride[d] = s
		s *= radix[d]
	}
	slots := nodes * 2 * dims
	t := &LinkTable{
		To: make([]int32, slots), From: make([]int32, slots), Reverse: make([]int32, slots),
		Coords: make([]uint16, nodes*dims), Dims: dims, Radix: radix, Wrap: wrap,
		Rings: make([][]RingCell, dims),
	}
	for d, k := range radix {
		t.Rings[d] = newRing(k, wrap)
	}
	coord := make([]int, dims)
	for n := 0; n < nodes; n++ {
		for d, x := range coord {
			t.Coords[n*dims+d] = uint16(x)
			for dir := Plus; dir <= Minus; dir++ {
				id := n*2*dims + 2*d + int(dir)
				nx := x + 1 - 2*int(dir)
				if nx < 0 || nx == radix[d] {
					if !wrap {
						t.To[id], t.From[id], t.Reverse[id] = -1, -1, -1
						continue
					}
					nx = (nx + radix[d]) % radix[d]
				}
				to := n + (nx-x)*stride[d]
				t.To[id], t.From[id] = int32(to), int32(n)
				t.Reverse[id] = int32(to*2*dims + 2*d + int(dir.Opposite()))
			}
		}
		for d := 0; d < dims; d++ {
			if coord[d]++; coord[d] < radix[d] {
				break
			}
			coord[d] = 0
		}
	}
	return t
}

// newRing tabulates the ring cells of one dimension of radix k. On a torus
// the offset b-a is normalized into (-k/2, k/2]; the wraparound hop leaves
// k-1 in Plus and 0 in Minus, and a path crosses it when normalization
// moved the offset, that is when a+off falls off the line [0, k).
func newRing(k int, wrap bool) []RingCell {
	ring := make([]RingCell, k*k)
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			off := b - a
			if wrap && off > k/2 {
				off -= k
			} else if wrap && off < -((k-1)/2) {
				off += k
			}
			class := uint8(1)
			if end := a + off; end >= k && a != k-1 || end < 0 && a != 0 {
				class = 0
			}
			ring[a*k+b] = RingCell{Off: int16(off), Class: class}
		}
	}
	return ring
}
