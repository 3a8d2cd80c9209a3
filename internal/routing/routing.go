// Package routing implements the wormhole routing functions the wave router
// can be configured with (paper section 2: "Messages are routed using either
// a deterministic or an adaptive routing algorithm") and the static
// channel-dependency-graph checker used to verify their deadlock freedom
// (Dally & Seitz [5]; Duato [8, 9]).
//
// Five functions are provided:
//
//   - "dor": dimension-order routing — deterministic, acyclic CDG on meshes;
//     on tori it uses the two-class dateline virtual channel scheme of
//     Dally & Seitz (needs >= 2 VCs).
//   - "duato": fully adaptive routing — minimal adaptive channels plus an
//     escape subfunction with an acyclic extended dependency graph (VC 0
//     dimension-order on meshes, VCs 0/1 dateline dimension-order on tori).
//     Every hop (adaptive or escape) is minimal, so distance to the
//     destination strictly decreases and routing loops are impossible.
//   - "westfirst": the Glass & Ni turn model for 2-D meshes — partially
//     adaptive, deadlock-free with a single VC.
//   - "negativefirst": the n-dimensional negative-first turn model —
//     adaptive in both phases, single-VC deadlock-free on any mesh.
//   - "dor-nodateline": deliberately UNSAFE torus DOR (cyclic CDG), usable
//     only with the wormhole engine's abort-and-retry recovery (E16).
//   - "updown": up*/down* routing on fat trees (topology.FatTree only) —
//     adaptive over the redundant up paths with Sancho-style balancing,
//     deadlock-free with a single VC because down->up turns never occur.
//   - "vcfree": the VC-free deadlock-free full-mesh scheme of Cano et al.
//     (HOTI 2025; topology.FullMesh only) — direct delivery plus 2-hop
//     adaptivity restricted to label-increasing link pairs.
//   - "vcfree-nolabel": the same without the label restriction — cyclic CDG,
//     recovery-only, the full-mesh counterpart of dor-nodateline.
//
// The five cube functions decide each hop from the per-dimension ring cells
// of the topology's link table (topology.RingCell: the probe's Xi-offset
// field and the dateline class), so they require a k-ary n-cube; their
// constructors reject other families with a clear error instead of assuming
// cube shape.
package routing

import (
	"fmt"

	"repro/internal/topology"
)

// cubeTable returns the link table of a cube, whose ring cells a cube-only
// routing function decides from, turning a wrong-family configuration into
// a construction error instead of a latent shape assumption.
func cubeTable(topo topology.Topology, fnName string) (*topology.LinkTable, error) {
	if _, ok := topo.(topology.Geometry); !ok {
		return nil, fmt.Errorf("routing: %s needs cube coordinate geometry, but %s does not provide it (use updown on fat trees, vcfree on full meshes)", fnName, topo.Name())
	}
	return topo.Links(), nil
}

// firstHop returns the dimension-order hop from here toward dst: the link
// along the lowest dimension whose coordinate differs, and that
// dimension's ring cell. ok is false when here == dst.
func firstHop(tab *topology.LinkTable, here, dst topology.Node) (link topology.LinkID, c topology.RingCell, ok bool) {
	for d := 0; d < tab.Dims; d++ {
		if c = tab.Cell(here, dst, d); c.Off != 0 {
			return tab.Slot(here, d, c.Dir()), c, true
		}
	}
	return topology.Invalid, c, false
}

// appendVCs appends link on every virtual channel lo, lo+step, ... below n.
func appendVCs(out []Candidate, link topology.LinkID, lo, step, n int) []Candidate {
	for vc := lo; vc < n; vc += step {
		out = append(out, Candidate{Link: link, VC: vc})
	}
	return out
}

// Candidate is one (output link, virtual channel) pair a header flit may be
// forwarded on, in preference order.
type Candidate struct {
	Link topology.LinkID
	VC   int
}

// Func is a wormhole routing function. Implementations must be pure: the
// same arguments always yield the same candidates, which the CDG checker
// relies on to enumerate every possible dependency.
type Func interface {
	// Name identifies the function in logs and stats.
	Name() string
	// NumVCs returns the number of virtual channels per physical channel the
	// function requires/uses.
	NumVCs() int
	// Candidates appends the (link, VC) pairs usable by a header at node
	// `here` destined to `dst`, having arrived on (inLink, inVC); inLink is
	// topology.Invalid for freshly injected messages. here != dst. The slice
	// is returned in preference order (most preferred first).
	Candidates(here, dst topology.Node, inLink topology.LinkID, inVC int, out []Candidate) []Candidate
	// Escape returns the restriction of the function to its escape channels:
	// the subfunction whose channel dependency graph must be acyclic for the
	// whole function to be deadlock-free (Duato's condition). Deterministic
	// functions return themselves.
	Escape() Func
}

// Names lists every registered routing function, in the order New accepts
// them. Tools that sweep "all routing functions" (cmd/cdgcheck, the verify
// matrix tests) iterate this instead of hardcoding the set.
func Names() []string {
	return []string{"dor", "duato", "westfirst", "negativefirst", "dor-nodateline", "updown", "vcfree", "vcfree-nolabel"}
}

// New builds the routing function named by name (see Names) for the given
// topology with numVCs virtual channels.
func New(name string, topo topology.Topology, numVCs int) (Func, error) {
	switch name {
	case "dor":
		return NewDOR(topo, numVCs)
	case "duato":
		return NewDuato(topo, numVCs)
	case "westfirst":
		return NewWestFirst(topo, numVCs)
	case "negativefirst":
		return NewNegativeFirst(topo, numVCs)
	case "dor-nodateline":
		return NewDORNoDateline(topo, numVCs)
	case "updown":
		return NewUpDown(topo, numVCs)
	case "vcfree":
		return NewVCFree(topo, numVCs)
	case "vcfree-nolabel":
		return NewVCFreeNoLabel(topo, numVCs)
	default:
		return nil, fmt.Errorf("routing: unknown function %q (want one of %v)", name, Names())
	}
}

// DORNoDateline is dimension-order routing WITHOUT the dateline virtual
// channel classes: on tori its channel dependency graph is cyclic and the
// network CAN deadlock. It exists for the deadlock-RECOVERY experiments
// (E16), where the wormhole engine's abort-and-retry mechanism resolves the
// deadlocks the routing function permits, and for proving the CDG checker
// non-vacuous. Never use it without recovery enabled.
type DORNoDateline struct {
	tab    *topology.LinkTable
	numVCs int
}

// NewDORNoDateline constructs the unrestricted function.
func NewDORNoDateline(topo topology.Topology, numVCs int) (*DORNoDateline, error) {
	tab, err := cubeTable(topo, "dor-nodateline")
	if err != nil {
		return nil, err
	}
	return &DORNoDateline{tab: tab, numVCs: numVCs}, nil
}

// Name implements Func.
func (r *DORNoDateline) Name() string { return "dor-nodateline" }

// NumVCs implements Func.
func (r *DORNoDateline) NumVCs() int { return r.numVCs }

// Escape implements Func.
func (r *DORNoDateline) Escape() Func { return r }

// Candidates implements Func.
func (r *DORNoDateline) Candidates(here, dst topology.Node, _ topology.LinkID, _ int, out []Candidate) []Candidate {
	if link, _, ok := firstHop(r.tab, here, dst); ok {
		return appendVCs(out, link, 0, 1, r.numVCs)
	}
	return out
}

// ---------------------------------------------------------------------------
// Dimension-order routing.

// DOR is deterministic dimension-order (e-cube) routing: correct dimension 0
// fully, then dimension 1, and so on. On meshes any virtual channel may be
// used (the link-level order is already acyclic). On tori the dateline scheme
// splits VCs into two classes per direction ring, read from the ring cell
// (topology.RingCell.Class):
//
//	class 0 — the wraparound hop of this (dimension, direction) ring still
//	          lies strictly ahead on the remaining path;
//	class 1 — this hop is the wraparound, the wraparound is behind, or the
//	          path never crosses it.
//
// The class is a pure function of position and destination (memoryless, so
// adaptive detours cannot corrupt it). With every hop minimal, a ring's
// wraparound is crossed at most once per message, so class-0 dependencies
// form the acyclic pre-dateline path, class-1 dependencies the acyclic
// wrap-then-prefix path, and dependencies only flow class 0 -> class 1. The
// channel dependency graph is acyclic (verified by TestTheoremCDGAcyclic).
type DOR struct {
	tab    *topology.LinkTable
	numVCs int
}

// NewDOR constructs dimension-order routing. Tori require numVCs >= 2.
func NewDOR(topo topology.Topology, numVCs int) (*DOR, error) {
	tab, err := cubeTable(topo, "dor")
	if err != nil {
		return nil, err
	}
	if numVCs < 1 {
		return nil, fmt.Errorf("routing: dor needs at least 1 VC, got %d", numVCs)
	}
	if tab.Wrap && numVCs < 2 {
		return nil, fmt.Errorf("routing: dor on a torus needs >= 2 VCs for the dateline scheme, got %d", numVCs)
	}
	return &DOR{tab: tab, numVCs: numVCs}, nil
}

// Name implements Func.
func (r *DOR) Name() string { return "dor" }

// NumVCs implements Func.
func (r *DOR) NumVCs() int { return r.numVCs }

// Escape implements Func: a deterministic function is its own escape.
func (r *DOR) Escape() Func { return r }

// Candidates implements Func.
func (r *DOR) Candidates(here, dst topology.Node, _ topology.LinkID, _ int, out []Candidate) []Candidate {
	link, c, ok := firstHop(r.tab, here, dst)
	if !ok {
		return out // at destination; engine delivers
	}
	if !r.tab.Wrap {
		return appendVCs(out, link, 0, 1, r.numVCs)
	}
	return appendVCs(out, link, int(c.Class), 2, r.numVCs)
}

// ---------------------------------------------------------------------------
// Duato fully adaptive routing.

// Duato is fully adaptive minimal routing with escape channels per Duato's
// necessary-and-sufficient condition [9]. Every hop — adaptive or escape —
// follows a torus/mesh *minimal* direction, so the distance to the
// destination strictly decreases each hop and no routing loop can form. The
// escape subfunction is dimension-order routing: on meshes it owns virtual
// channel 0; on tori it owns channels 0 and 1, operated as the Dally-Seitz
// dateline classes (class 1 from the wraparound hop onward; see DOR). The
// remaining VCs are fully adaptive across every minimal direction.
type Duato struct {
	tab     *topology.LinkTable
	numVCs  int
	escape  *escapeDOR
	adaptLo int // first adaptive VC index
}

// NewDuato constructs the adaptive function. Meshes need >= 2 VCs (1 escape +
// adaptive); tori need >= 3 (2 dateline escape classes + adaptive).
func NewDuato(topo topology.Topology, numVCs int) (*Duato, error) {
	tab, err := cubeTable(topo, "duato")
	if err != nil {
		return nil, err
	}
	adaptLo := 1
	if tab.Wrap {
		if numVCs < 3 {
			return nil, fmt.Errorf("routing: duato on a torus needs >= 3 VCs (2 dateline escape + adaptive), got %d", numVCs)
		}
		adaptLo = 2
	} else if numVCs < 2 {
		return nil, fmt.Errorf("routing: duato needs >= 2 VCs (escape + adaptive), got %d", numVCs)
	}
	return &Duato{tab: tab, numVCs: numVCs, escape: &escapeDOR{tab: tab, numVCs: numVCs}, adaptLo: adaptLo}, nil
}

// Name implements Func.
func (r *Duato) Name() string { return "duato" }

// NumVCs implements Func.
func (r *Duato) NumVCs() int { return r.numVCs }

// Escape implements Func.
func (r *Duato) Escape() Func { return r.escape }

// move is one profitable direction of a Duato adaptive enumeration, kept to
// 8 bytes because the stack buffer holding them is zeroed on every call
// (link slots fit in 32 bits under topology.NewCube's slot gate).
type move struct {
	link int32
	mag  int16
}

// maxStackDims sizes the stack-resident move buffer of the adaptive
// enumeration; the 2^31 link-slot gate of topology.NewCube keeps every cube
// below it.
const maxStackDims = 32

// Candidates implements Func. Adaptive channels come first (preferring the
// dimension with the largest remaining offset, which tends to preserve
// future adaptivity; ties keep dimension order), the escape channel last.
func (r *Duato) Candidates(here, dst topology.Node, inLink topology.LinkID, inVC int, out []Candidate) []Candidate {
	var movesBuf [maxStackDims]move
	moves := movesBuf[:0]
	for d := 0; d < r.tab.Dims; d++ {
		c := r.tab.Cell(here, dst, d)
		if c.Off == 0 {
			continue
		}
		mag := c.Off
		if mag < 0 {
			mag = -mag
		}
		moves = append(moves, move{link: int32(r.tab.Slot(here, d, c.Dir())), mag: mag})
	}
	for i := 1; i < len(moves); i++ {
		for j := i; j > 0 && moves[j].mag > moves[j-1].mag; j-- {
			moves[j], moves[j-1] = moves[j-1], moves[j]
		}
	}
	for _, m := range moves {
		out = appendVCs(out, topology.LinkID(m.link), r.adaptLo, 1, r.numVCs)
	}
	// Escape candidate last.
	return r.escape.Candidates(here, dst, inLink, inVC, out)
}

// escapeDOR is Duato's escape subfunction: dimension-order routing on the
// escape channels only. On meshes that is VC 0 alone, and its dependency
// graph is acyclic with a single escape VC. On tori it is the two dateline
// classes, class 0 on VC 0 and class 1 on VC 1; because the class is a pure
// function of position and destination, a message re-entering the escape
// network from an adaptive excursion lands in exactly the class it would
// have had anyway.
type escapeDOR struct {
	tab    *topology.LinkTable
	numVCs int
}

// Name implements Func.
func (r *escapeDOR) Name() string {
	if r.tab.Wrap {
		return "duato-escape-dateline"
	}
	return "duato-escape"
}

// NumVCs implements Func.
func (r *escapeDOR) NumVCs() int { return r.numVCs }

// Escape implements Func.
func (r *escapeDOR) Escape() Func { return r }

// Candidates implements Func.
func (r *escapeDOR) Candidates(here, dst topology.Node, _ topology.LinkID, _ int, out []Candidate) []Candidate {
	link, c, ok := firstHop(r.tab, here, dst)
	if !ok {
		return out
	}
	if !r.tab.Wrap {
		return append(out, Candidate{Link: link, VC: 0})
	}
	return append(out, Candidate{Link: link, VC: int(c.Class)})
}
