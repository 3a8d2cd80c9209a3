package routing

import (
	"fmt"

	"repro/internal/topology"
)

// VCFree is the virtual-channel-free deadlock-free routing of Cano et al.
// (HOTI 2025) for full-mesh (all-to-all) networks. The direct link always
// delivers in one hop; for adaptivity, a message may additionally take a
// 2-hop detour through an intermediate node i, but only when the link labels
// increase along the detour: LinkID(s -> i) < LinkID(i -> d). A message in
// transit (one that already consumed its first hop) is restricted to the
// direct link. Every channel dependency therefore goes from a lower LinkID
// to a strictly higher one, so the channel dependency graph is acyclic with
// a single virtual channel — no VC split, no escape subfunction.
//
// Because the transit restriction reads the input link, VCFree must never be
// frozen into a table evaluated with inLink = Invalid: that would erase the
// restriction and reopen the cycles the labels close.
type VCFree struct {
	topo   *topology.FullMesh
	numVCs int
	// labeled applies the Cano label restriction to 2-hop detours. The
	// unlabeled variant (vcfree-nolabel) ships as the deliberately broken
	// control: dropping the restriction creates 3-cycles in the CDG, so the
	// prover downgrades it to recovery-only — the full-mesh analog of
	// dor-nodateline.
	labeled bool
}

// NewVCFree constructs the label-restricted (deadlock-free) function; the
// topology must be a full mesh.
func NewVCFree(topo topology.Topology, numVCs int) (*VCFree, error) {
	return newVCFree(topo, numVCs, true, "vcfree")
}

// NewVCFreeNoLabel constructs the unrestricted variant, which is NOT
// deadlock-free: it exists to demonstrate (via cdgcheck and the verify
// matrix) that the label restriction is what closes the cycles. Runs using
// it must enable recovery, like dor-nodateline.
func NewVCFreeNoLabel(topo topology.Topology, numVCs int) (*VCFree, error) {
	return newVCFree(topo, numVCs, false, "vcfree-nolabel")
}

func newVCFree(topo topology.Topology, numVCs int, labeled bool, name string) (*VCFree, error) {
	if numVCs < 1 {
		return nil, fmt.Errorf("routing: %s needs at least 1 VC, got %d", name, numVCs)
	}
	m, ok := topo.(*topology.FullMesh)
	if !ok {
		return nil, fmt.Errorf("routing: %s is defined on full meshes, got %s", name, topo.Name())
	}
	return &VCFree{topo: m, numVCs: numVCs, labeled: labeled}, nil
}

// Name implements Func.
func (r *VCFree) Name() string {
	if r.labeled {
		return "vcfree"
	}
	return "vcfree-nolabel"
}

// NumVCs implements Func.
func (r *VCFree) NumVCs() int { return r.numVCs }

// Escape implements Func: the labeled dependency graph is acyclic outright,
// so the function is its own escape. (The unlabeled variant is also its own
// escape — and the prover correctly rejects it.)
func (r *VCFree) Escape() Func { return r }

// Candidates implements Func.
func (r *VCFree) Candidates(here, dst topology.Node, inLink topology.LinkID, _ int, out []Candidate) []Candidate {
	if here == dst {
		return out
	}
	direct := r.topo.LinkTo(here, dst)
	for vc := 0; vc < r.numVCs; vc++ {
		out = append(out, Candidate{Link: direct, VC: vc})
	}
	if inLink != topology.Invalid {
		// Transit: the second hop of a detour must go straight home.
		return out
	}
	// Injection: 2-hop detours through intermediates, ascending, restricted
	// (when labeled) to label-increasing link pairs.
	for i := 0; i < r.topo.Nodes(); i++ {
		mid := topology.Node(i)
		if mid == here || mid == dst {
			continue
		}
		if r.labeled && r.topo.LinkTo(here, mid) >= r.topo.LinkTo(mid, dst) {
			continue
		}
		link := r.topo.LinkTo(here, mid)
		for vc := 0; vc < r.numVCs; vc++ {
			out = append(out, Candidate{Link: link, VC: vc})
		}
	}
	return out
}

var _ Func = (*VCFree)(nil)
