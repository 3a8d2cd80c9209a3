package routing

import (
	"fmt"

	"repro/internal/topology"
)

// WestFirst is the west-first turn-model routing algorithm of Glass & Ni for
// 2-D meshes: a message that must travel west (dimension 0, Minus) makes all
// of its westward hops first; afterwards it routes fully adaptively among
// the remaining profitable directions (east, north, south). Prohibiting the
// two turns into the west direction breaks every abstract cycle, so the
// algorithm is deadlock-free with any number of virtual channels and no
// escape split — a partially adaptive contrast to DOR (none) and Duato
// (fully adaptive) in the evaluation matrix.
type WestFirst struct {
	tab    *topology.LinkTable
	numVCs int
}

// NewWestFirst constructs west-first routing; the topology must be a 2-D
// mesh (the turn-model argument needs no wraparound edges).
func NewWestFirst(topo topology.Topology, numVCs int) (*WestFirst, error) {
	if numVCs < 1 {
		return nil, fmt.Errorf("routing: west-first needs at least 1 VC, got %d", numVCs)
	}
	tab, err := cubeTable(topo, "westfirst")
	if err != nil {
		return nil, err
	}
	if tab.Wrap {
		return nil, fmt.Errorf("routing: west-first requires a mesh (turn model does not cover wraparound)")
	}
	if tab.Dims != 2 {
		return nil, fmt.Errorf("routing: west-first is defined for 2-D meshes, got %d dimensions", tab.Dims)
	}
	return &WestFirst{tab: tab, numVCs: numVCs}, nil
}

// Name implements Func.
func (r *WestFirst) Name() string { return "westfirst" }

// NumVCs implements Func.
func (r *WestFirst) NumVCs() int { return r.numVCs }

// Escape implements Func: the whole function's dependency graph is acyclic
// (turn model), so it is its own escape.
func (r *WestFirst) Escape() Func { return r }

// Candidates implements Func.
func (r *WestFirst) Candidates(here, dst topology.Node, _ topology.LinkID, _ int, out []Candidate) []Candidate {
	x, y := r.tab.Cell(here, dst, 0), r.tab.Cell(here, dst, 1)
	if x.Off < 0 {
		// West first, exclusively: no other direction may be taken while any
		// westward hops remain.
		return appendVCs(out, r.tab.Slot(here, 0, topology.Minus), 0, 1, r.numVCs)
	}
	// Fully adaptive among east and vertical moves.
	if x.Off > 0 {
		out = appendVCs(out, r.tab.Slot(here, 0, topology.Plus), 0, 1, r.numVCs)
	}
	if y.Off != 0 {
		out = appendVCs(out, r.tab.Slot(here, 1, y.Dir()), 0, 1, r.numVCs)
	}
	return out
}
