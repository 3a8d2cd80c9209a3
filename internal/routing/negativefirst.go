package routing

import (
	"fmt"

	"repro/internal/topology"
)

// NegativeFirst is the negative-first turn-model algorithm on meshes of any
// dimensionality: a message first makes all of its hops in negative
// directions (fully adaptively among them), then all of its positive hops
// (again fully adaptively). Turns from a positive to a negative direction
// are prohibited, which breaks every dependency cycle — deadlock-free with
// any number of virtual channels, like WestFirst but adaptive in both
// phases and not limited to two dimensions.
type NegativeFirst struct {
	tab    *topology.LinkTable
	numVCs int
}

// NewNegativeFirst constructs negative-first routing for a mesh.
func NewNegativeFirst(topo topology.Topology, numVCs int) (*NegativeFirst, error) {
	if numVCs < 1 {
		return nil, fmt.Errorf("routing: negative-first needs at least 1 VC, got %d", numVCs)
	}
	tab, err := cubeTable(topo, "negativefirst")
	if err != nil {
		return nil, err
	}
	if tab.Wrap {
		return nil, fmt.Errorf("routing: negative-first requires a mesh (turn model does not cover wraparound)")
	}
	return &NegativeFirst{tab: tab, numVCs: numVCs}, nil
}

// Name implements Func.
func (r *NegativeFirst) Name() string { return "negativefirst" }

// NumVCs implements Func.
func (r *NegativeFirst) NumVCs() int { return r.numVCs }

// Escape implements Func: the whole graph is acyclic (turn model).
func (r *NegativeFirst) Escape() Func { return r }

// Candidates implements Func.
func (r *NegativeFirst) Candidates(here, dst topology.Node, _ topology.LinkID, _ int, out []Candidate) []Candidate {
	// Phase one: any remaining negative hop, adaptively.
	n := len(out)
	for d := 0; d < r.tab.Dims; d++ {
		if r.tab.Cell(here, dst, d).Off < 0 {
			out = appendVCs(out, r.tab.Slot(here, d, topology.Minus), 0, 1, r.numVCs)
		}
	}
	if len(out) > n {
		return out
	}
	// Phase two: positive hops, adaptively.
	for d := 0; d < r.tab.Dims; d++ {
		if r.tab.Cell(here, dst, d).Off > 0 {
			out = appendVCs(out, r.tab.Slot(here, d, topology.Plus), 0, 1, r.numVCs)
		}
	}
	return out
}
