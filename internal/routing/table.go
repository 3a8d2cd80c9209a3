package routing

import (
	"repro/internal/topology"
)

// This file selects the representation that serves a fabric's per-cycle
// Candidates lookups. Every cube routing function decides one dimension at a
// time, so on a k-ary n-cube BuildCompressed reproduces its candidate
// sequences from O(n*k^2) cells (compressed.go). The other functions
// (updown, vcfree, vcfree-nolabel) are closed-form already and run as they
// are; vcfree also reads inLink, which a table indexed by (here, dst) could
// not honour, and BuildCompressed refuses it because a full mesh is not a
// cube. The table is built per fabric: a cold build takes tens to hundreds
// of microseconds, so no memo is kept.

// TableMode names the representation serving Candidates after selection.
type TableMode uint8

const (
	// TableAlgorithmic: no precomputation; the routing function runs per
	// lookup.
	TableAlgorithmic TableMode = iota
	// TableFlat named the retired flat (here, dst) arena; Select never
	// returns it.
	//
	// Deprecated: kept so the benchmark module compiles.
	TableFlat
	// TableCompressed: per-dimension offset tables (k-ary n-cubes).
	TableCompressed
)

// String implements fmt.Stringer.
func (m TableMode) String() string {
	if m == TableCompressed {
		return "compressed"
	}
	return "algorithmic"
}

// TableInfo describes the outcome of routing-table selection.
type TableInfo struct {
	// Mode is the representation serving lookups.
	Mode TableMode
	// Bytes is the compressed table's footprint (cells+coords); 0 when
	// algorithmic.
	Bytes int
}

// Select returns the representation that serves fn's lookups on topo: the
// compressed per-dimension table for the five cube functions on a k-ary
// n-cube, fn itself otherwise. Candidate sequences are identical either way.
func Select(fn Func, topo topology.Topology) (Func, TableInfo) {
	t, ok := BuildCompressed(fn, topo)
	if !ok {
		return fn, TableInfo{Mode: TableAlgorithmic}
	}
	cells, coords := t.MemoryFootprint()
	return t, TableInfo{Mode: TableCompressed, Bytes: cells + coords}
}

// DefaultTableMaxNodes was the node gate of the flat (here, dst) arena.
// Nothing reads it.
//
// Deprecated: kept so the benchmark module compiles.
const DefaultTableMaxNodes = 1024

// SelectTableCached is Select; maxNodes is ignored and nothing is cached.
//
// Deprecated: kept so the benchmark module compiles.
func SelectTableCached(fn Func, topo topology.Topology, maxNodes int) (Func, TableInfo) {
	return Select(fn, topo)
}
