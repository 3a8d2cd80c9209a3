package routing

import (
	"fmt"

	"repro/internal/topology"
)

// UpDown is up*/down* routing on a k-ary n-tree: a message climbs toward the
// roots until the destination host lies in the current switch's subtree, then
// descends along the unique down path. Because every hop is either up or
// down and a down hop is never followed by an up hop, any channel dependency
// chain alternates level monotonically — first strictly up, then strictly
// down — so the channel dependency graph is acyclic with a single virtual
// channel (Theorem 1 certifies it directly).
//
// The up phase is where fat trees earn their bisection: every one of the k
// up links of a switch reaches a root serving the destination, so all of
// them are profitable. To keep the generator deterministic while spreading
// root load (Sancho-style balancing of the redundant up paths), the up ports
// are emitted in a rotation keyed by the destination: port (dst + i) mod k
// for i = 0..k-1. Distinct destinations therefore prefer distinct roots,
// yet the candidate sequence for a given (here, dst) is a pure function of
// the pair, so bit-exact replay holds.
type UpDown struct {
	topo   *topology.FatTree
	numVCs int
}

// NewUpDown constructs up*/down* routing; the topology must be a fat tree.
func NewUpDown(topo topology.Topology, numVCs int) (*UpDown, error) {
	if numVCs < 1 {
		return nil, fmt.Errorf("routing: updown needs at least 1 VC, got %d", numVCs)
	}
	t, ok := topo.(*topology.FatTree)
	if !ok {
		return nil, fmt.Errorf("routing: updown is defined on fat trees, got %s", topo.Name())
	}
	return &UpDown{topo: t, numVCs: numVCs}, nil
}

// Name implements Func.
func (r *UpDown) Name() string { return "updown" }

// NumVCs implements Func.
func (r *UpDown) NumVCs() int { return r.numVCs }

// Escape implements Func: the whole dependency graph is acyclic (no
// down-to-up turns exist), so the function is its own escape.
func (r *UpDown) Escape() Func { return r }

// Candidates implements Func.
func (r *UpDown) Candidates(here, dst topology.Node, _ topology.LinkID, _ int, out []Candidate) []Candidate {
	if here == dst {
		return out
	}
	if r.topo.InSubtree(here, dst) {
		// Down phase: the unique port toward dst.
		link, ok := r.topo.OutSlot(here, r.topo.DownPort(here, dst))
		if !ok {
			panic(fmt.Sprintf("routing: updown missing down link at node %d toward %d", here, dst))
		}
		for vc := 0; vc < r.numVCs; vc++ {
			out = append(out, Candidate{Link: link, VC: vc})
		}
		return out
	}
	// Up phase: every up port makes progress; rotate by destination so
	// different flows prefer different redundant paths.
	nups := r.topo.NumUpPorts(here)
	for i := 0; i < nups; i++ {
		port := (int(dst) + i) % nups
		link, ok := r.topo.OutSlot(here, port)
		if !ok {
			panic(fmt.Sprintf("routing: updown missing up port %d at node %d", port, here))
		}
		for vc := 0; vc < r.numVCs; vc++ {
			out = append(out, Candidate{Link: link, VC: vc})
		}
	}
	return out
}

var _ Func = (*UpDown)(nil)
