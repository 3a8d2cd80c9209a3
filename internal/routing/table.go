package routing

import (
	"repro/internal/topology"
)

// This file keeps the names of the retired routing-table selection, which
// served Candidates from a precomputed table beside each routing function.
// The cube functions now read their per-dimension ring cells from the
// topology's link table themselves (topology.RingCell), so every function
// serves its own lookups and nothing is selected.

// TableMode named the representation serving Candidates.
//
// Deprecated: kept so the benchmark module compiles.
type TableMode uint8

const (
	// TableAlgorithmic: the routing function serves its own lookups.
	//
	// Deprecated: kept so the benchmark module compiles.
	TableAlgorithmic TableMode = iota
	// TableFlat named the retired flat (here, dst) arena.
	//
	// Deprecated: kept so the benchmark module compiles.
	TableFlat
)

// TableInfo described the outcome of routing-table selection.
//
// Deprecated: kept so the benchmark module compiles.
type TableInfo struct {
	Mode  TableMode
	Bytes int
}

// DefaultTableMaxNodes was the node gate of the flat (here, dst) arena.
//
// Deprecated: kept so the benchmark module compiles.
const DefaultTableMaxNodes = 1024

// SelectTableCached returns fn unchanged.
//
// Deprecated: kept so the benchmark module compiles.
func SelectTableCached(fn Func, topo topology.Topology, maxNodes int) (Func, TableInfo) {
	return fn, TableInfo{}
}

// BuildCompressed reports false: no compressed table exists.
//
// Deprecated: kept so the benchmark module compiles.
func BuildCompressed(fn Func, topo topology.Topology) (Func, bool) {
	return nil, false
}
