package topology

// LinkTable is the immutable geometry every topology precomputes once at
// construction — the software form of the paper's per-router registers: what
// a probe or header needs at a hop is a load, not arithmetic. Hot loops
// (pcs.outputs, wormhole allocation, the compressed routing kernels) hold
// its slices directly; the Cube accessors read it too, so closed-form
// coordinate arithmetic exists only in newCubeTable. Treat every slice as
// read-only.
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
}

// Exists reports whether id names a physical link: in range and not a
// phantom slot.
func (t *LinkTable) Exists(id LinkID) bool {
	return id >= 0 && int(id) < len(t.To) && t.To[id] >= 0
}

// Offset returns the signed minimal offset from a to b along dimension d of
// a cube: positive means travel in Plus. On tori the result is normalized
// into (-k/2, k/2], so ties at distance exactly k/2 (k even) resolve to Plus
// and routing stays deterministic.
func (t *LinkTable) Offset(a, b Node, d int) int {
	diff := int(t.Coords[int(b)*t.Dims+d]) - int(t.Coords[int(a)*t.Dims+d])
	if t.Wrap {
		if k := t.Radix[d]; diff > k>>1 {
			diff -= k
		} else if diff < -((k - 1) >> 1) {
			diff += k
		}
	}
	return diff
}

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
