package routing

import (
	"fmt"

	"repro/internal/topology"
)

// This file implements the routing fast path of every k-ary n-cube. A table
// over (here, dst) pairs would be O(Nodes^2): ~1M pairs at 32x32, ~16M at
// 64x64. Every cube routing function in this package, however, decides per
// dimension: the candidate set for (here, dst) is a pure function of the
// per-dimension (here-coordinate, dst-coordinate) pairs, and on a k-ary
// n-cube the output LinkID is itself arithmetic (node*2*dims + 2*dim + dir).
// So a table indexed by (dimension, xh, xd) — O(sum_d k_d^2) cells of 4
// bytes — plus a dense node->coordinate array reproduces the generator's
// candidate sequences exactly, in O(dims) loads per lookup and a few bytes
// per node. The algorithmic implementations remain the generator and the
// exhaustive oracle (TestCompressedMatchesOracle).

// compKind selects the per-function lookup kernel of a CompressedFunc.
type compKind uint8

const (
	compDOR compKind = iota
	compDORNoDateline
	compDuato
	compWestFirst
	compNegativeFirst
)

// dimCell is one (dimension, here-coord, dst-coord) entry: the minimal hop
// this routing step would take along that dimension. mag == 0 means the
// coordinate is already corrected. class caches the Dally-Seitz dateline
// virtual-channel class of the hop on tori (see datelineClass); it is 0 on
// meshes.
type dimCell struct {
	mag   uint16
	dir   uint8 // topology.Dir
	class uint8
}

// sizeofDimCell mirrors unsafe.Sizeof(dimCell{}) without importing unsafe.
const sizeofDimCell = 4

// CompressedFunc is a routing function backed by per-dimension offset
// tables. It implements Func, reproduces the generator's candidate
// sequences exactly, allocates nothing per lookup, and is safe for
// concurrent Candidates calls (lookups only read frozen slices).
type CompressedFunc struct {
	orig    Func
	kind    compKind
	numVCs  int
	dims    int
	wrap    bool
	adaptLo int // first adaptive VC (Duato kernels only)
	nodes   int
	radix   []int32 // radix per dimension
	cellOff []int32 // cells offset per dimension (cells[cellOff[d] + xh*radix[d] + xd])
	cells   []dimCell
	coords  []uint16 // coords[int(node)*dims+d]; the cube's own link-table array, shared
}

// BuildCompressed builds the per-dimension table for fn over topo. It
// reports ok=false when the pair is outside the compressed scheme's domain:
// the topology is not a k-ary n-cube (LinkID arithmetic would not hold), a
// radix overflows the 16-bit cell fields, or fn is not one of the five
// registered cube functions. Callers fall back to the algorithmic path.
func BuildCompressed(fn Func, topo topology.Topology) (*CompressedFunc, bool) {
	cube, isCube := topo.(*topology.Cube)
	if !isCube {
		return nil, false
	}
	dims := cube.Dims()
	if dims > maxStackDims {
		return nil, false
	}
	t := &CompressedFunc{
		orig:   fn,
		numVCs: fn.NumVCs(),
		dims:   dims,
		wrap:   cube.Wrap(),
		nodes:  cube.Nodes(),
	}
	switch fn.Name() {
	case "dor":
		t.kind = compDOR
	case "dor-nodateline":
		t.kind = compDORNoDateline
	case "duato":
		t.kind = compDuato
		t.adaptLo = 1
		if t.wrap {
			t.adaptLo = 2
		}
	case "westfirst":
		t.kind = compWestFirst
	case "negativefirst":
		t.kind = compNegativeFirst
	default:
		return nil, false
	}

	t.radix = make([]int32, dims)
	t.cellOff = make([]int32, dims)
	cellTotal := 0
	for d := 0; d < dims; d++ {
		k := cube.Radix(d)
		if k > 1<<16-1 {
			return nil, false
		}
		t.radix[d] = int32(k)
		t.cellOff[d] = int32(cellTotal)
		cellTotal += k * k
	}

	t.cells = make([]dimCell, cellTotal)
	for d := 0; d < dims; d++ {
		k := int(t.radix[d])
		base := int(t.cellOff[d])
		for xh := 0; xh < k; xh++ {
			for xd := 0; xd < k; xd++ {
				// Minimal signed offset, normalized exactly as
				// Cube.offsetAlong: into (-k/2, k/2] on tori, ties at k/2
				// resolving Plus.
				diff := xd - xh
				if t.wrap {
					for diff > k/2 {
						diff -= k
					}
					for diff < -(k-1)/2 {
						diff += k
					}
				}
				if diff == 0 {
					continue // zero cell: coordinate corrected
				}
				c := &t.cells[base+xh*k+xd]
				if diff > 0 {
					c.mag = uint16(diff)
					c.dir = uint8(topology.Plus)
				} else {
					c.mag = uint16(-diff)
					c.dir = uint8(topology.Minus)
				}
				if t.wrap {
					// datelineClass as a function of (xh, diff, k, dir) alone.
					c.class = 1
					if diff > 0 {
						if xh+diff >= k && xh != k-1 {
							c.class = 0
						}
					} else if xh+diff < 0 && xh != 0 {
						c.class = 0
					}
				}
			}
		}
	}

	t.coords = cube.Links().Coords

	if !t.selfCheck(fn) {
		return nil, false
	}
	return t, true
}

// selfCheck compares the compressed lookup against the generator over a
// deterministic pseudo-random pair sample at build time — a cheap guard
// that a kernel/generator divergence degrades to a correct fallback rather
// than mis-routing a run. The exhaustive proof lives in the tests.
func (t *CompressedFunc) selfCheck(fn Func) bool {
	const samples = 512
	var got, want []Candidate
	state := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < samples; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		here := topology.Node((state >> 33) % uint64(t.nodes))
		state = state*6364136223846793005 + 1442695040888963407
		dst := topology.Node((state >> 33) % uint64(t.nodes))
		if here == dst {
			continue
		}
		got = t.Candidates(here, dst, topology.Invalid, 0, got[:0])
		want = fn.Candidates(here, dst, topology.Invalid, 0, want[:0])
		if len(got) != len(want) {
			return false
		}
		for j := range got {
			if got[j] != want[j] {
				return false
			}
		}
	}
	return true
}

// cellAt returns the (dimension, here-coord, dst-coord) cell.
func (t *CompressedFunc) cellAt(d int, xh, xd uint16) dimCell {
	return t.cells[int(t.cellOff[d])+int(xh)*int(t.radix[d])+int(xd)]
}

// cmove is one profitable direction gathered by the Duato kernel.
type cmove struct {
	mag   uint16
	dim   uint8
	dir   uint8
	class uint8
}

// Candidates implements Func: per-dimension cell loads plus LinkID
// arithmetic, dispatched on the generator's kernel. No allocation beyond
// the caller's out slice.
func (t *CompressedFunc) Candidates(here, dst topology.Node, _ topology.LinkID, _ int, out []Candidate) []Candidate {
	hb := int(here) * t.dims
	db := int(dst) * t.dims
	linkBase := int(here) * 2 * t.dims

	switch t.kind {
	case compDOR:
		for d := 0; d < t.dims; d++ {
			c := t.cellAt(d, t.coords[hb+d], t.coords[db+d])
			if c.mag == 0 {
				continue
			}
			link := topology.LinkID(linkBase + 2*d + int(c.dir))
			if !t.wrap {
				for vc := 0; vc < t.numVCs; vc++ {
					out = append(out, Candidate{Link: link, VC: vc})
				}
				return out
			}
			for vc := int(c.class); vc < t.numVCs; vc += 2 {
				out = append(out, Candidate{Link: link, VC: vc})
			}
			return out
		}
		return out

	case compDORNoDateline:
		for d := 0; d < t.dims; d++ {
			c := t.cellAt(d, t.coords[hb+d], t.coords[db+d])
			if c.mag == 0 {
				continue
			}
			link := topology.LinkID(linkBase + 2*d + int(c.dir))
			for vc := 0; vc < t.numVCs; vc++ {
				out = append(out, Candidate{Link: link, VC: vc})
			}
			return out
		}
		return out

	case compDuato:
		// Mirror Duato.Candidates: profitable moves in dimension order, a
		// stable insertion sort descending by magnitude (ties keep dimension
		// order), adaptive VCs per move, then the escape hop — the first
		// profitable dimension in dimension order — on its escape VC.
		var movesBuf [maxStackDims]cmove
		n := 0
		for d := 0; d < t.dims; d++ {
			c := t.cellAt(d, t.coords[hb+d], t.coords[db+d])
			if c.mag == 0 {
				continue
			}
			movesBuf[n] = cmove{mag: c.mag, dim: uint8(d), dir: c.dir, class: c.class}
			n++
		}
		if n == 0 {
			return out
		}
		first := movesBuf[0]
		moves := movesBuf[:n]
		for i := 1; i < n; i++ {
			for j := i; j > 0 && moves[j].mag > moves[j-1].mag; j-- {
				moves[j], moves[j-1] = moves[j-1], moves[j]
			}
		}
		for i := range moves {
			link := topology.LinkID(linkBase + 2*int(moves[i].dim) + int(moves[i].dir))
			for vc := t.adaptLo; vc < t.numVCs; vc++ {
				out = append(out, Candidate{Link: link, VC: vc})
			}
		}
		escVC := 0
		if t.wrap {
			escVC = int(first.class)
		}
		escLink := topology.LinkID(linkBase + 2*int(first.dim) + int(first.dir))
		return append(out, Candidate{Link: escLink, VC: escVC})

	case compWestFirst:
		// dims == 2, mesh (enforced by NewWestFirst).
		c0 := t.cellAt(0, t.coords[hb], t.coords[db])
		if c0.mag != 0 && topology.Dir(c0.dir) == topology.Minus {
			link := topology.LinkID(linkBase + int(topology.Minus))
			for vc := 0; vc < t.numVCs; vc++ {
				out = append(out, Candidate{Link: link, VC: vc})
			}
			return out
		}
		if c0.mag != 0 {
			link := topology.LinkID(linkBase + int(topology.Plus))
			for vc := 0; vc < t.numVCs; vc++ {
				out = append(out, Candidate{Link: link, VC: vc})
			}
		}
		c1 := t.cellAt(1, t.coords[hb+1], t.coords[db+1])
		if c1.mag != 0 {
			link := topology.LinkID(linkBase + 2 + int(c1.dir))
			for vc := 0; vc < t.numVCs; vc++ {
				out = append(out, Candidate{Link: link, VC: vc})
			}
		}
		return out

	case compNegativeFirst:
		negAny := false
		for d := 0; d < t.dims; d++ {
			c := t.cellAt(d, t.coords[hb+d], t.coords[db+d])
			if c.mag != 0 && topology.Dir(c.dir) == topology.Minus {
				link := topology.LinkID(linkBase + 2*d + int(topology.Minus))
				for vc := 0; vc < t.numVCs; vc++ {
					out = append(out, Candidate{Link: link, VC: vc})
				}
				negAny = true
			}
		}
		if negAny {
			return out
		}
		for d := 0; d < t.dims; d++ {
			c := t.cellAt(d, t.coords[hb+d], t.coords[db+d])
			if c.mag != 0 {
				link := topology.LinkID(linkBase + 2*d + int(topology.Plus))
				for vc := 0; vc < t.numVCs; vc++ {
					out = append(out, Candidate{Link: link, VC: vc})
				}
			}
		}
		return out
	}
	return out
}

// Oracle returns the algorithmic generator the table was built from.
func (t *CompressedFunc) Oracle() Func { return t.orig }

// Name implements Func: the compressed table is an implementation detail,
// so logs and stats report the generator's name.
func (t *CompressedFunc) Name() string { return t.orig.Name() }

// NumVCs implements Func.
func (t *CompressedFunc) NumVCs() int { return t.numVCs }

// Escape implements Func. The escape subfunction is consulted only by the
// static CDG checker, never per cycle, so it stays algorithmic.
func (t *CompressedFunc) Escape() Func {
	esc := t.orig.Escape()
	if esc == t.orig {
		return t
	}
	return esc
}

// MemoryFootprint returns the cell-table and coordinate-array sizes in
// bytes. The coordinate array is the one the cube already holds, counted
// here because a lookup reads it.
func (t *CompressedFunc) MemoryFootprint() (cellBytes, coordBytes int) {
	return len(t.cells) * sizeofDimCell, len(t.coords) * 2
}

var _ Func = (*CompressedFunc)(nil)

// String aids debugging.
func (t *CompressedFunc) String() string {
	return fmt.Sprintf("compressed[%s, %d nodes, %d cells]", t.orig.Name(), t.nodes, len(t.cells))
}
