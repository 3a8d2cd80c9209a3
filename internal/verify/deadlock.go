package verify

import (
	"fmt"
	"math/bits"

	"repro/internal/routing"
	"repro/internal/topology"
)

// deadlockProof carries, alongside the verdict, the acyclic dependency
// graph and subfunction the proof rests on — the wait-for layer splices its
// fallback edges into exactly this graph, so the protocol proof inherits
// the substrate proof instead of re-deriving a possibly different one.
type deadlockProof struct {
	Proof
	// graph is the proven-acyclic CDG (nil when the method is "recovery").
	graph *routing.CDG
	// fn is the subfunction whose graph it is (nil when "recovery").
	fn routing.Func
}

// proveDeadlock establishes deadlock freedom of the wormhole substrate, in
// order of argument strength:
//
//  1. "acyclic-cdg": the full function's dependency graph is acyclic
//     (Dally & Seitz) — the strongest result, no escape reasoning needed.
//  2. "escape": the declared escape subfunction delivers everywhere and has
//     an acyclic CDG (Duato's necessary-and-sufficient condition).
//  3. "subrelation": the declared escape fails, but some virtual-channel
//     subset of the function forms a connected subfunction with an acyclic
//     CDG — the valid-subrelation search of constellation's verify.py,
//     restricted to the VC lattice where it is exhaustive and cheap.
//  4. "recovery": the graph is cyclic but abort-and-retry recovery is armed
//     (RecoveryTimeout > 0); deadlocks are resolved dynamically (E16).
//
// Anything else is rejected with a minimal counterexample cycle from the
// escape graph.
func proveDeadlock(sp Spec, fn routing.Func) deadlockProof {
	full := routing.BuildCDGCached(sp.Topo, fn)
	if full.FindCycle() == nil {
		v, e, _ := full.Stats()
		return deadlockProof{
			Proof: Proof{OK: true, Method: "acyclic-cdg",
				Detail: fmt.Sprintf("full dependency graph acyclic (Dally-Seitz): %d channels, %d dependencies", v, e)},
			graph: full, fn: fn,
		}
	}

	esc := fn.Escape()
	escG := routing.BuildCDGCached(sp.Topo, esc)
	if escG.FindCycle() == nil && proveDelivery(sp.Topo, esc, escG).ok {
		v, e, _ := escG.Stats()
		return deadlockProof{
			Proof: Proof{OK: true, Method: "escape",
				Detail: fmt.Sprintf("escape subfunction %s connected with acyclic dependency graph (Duato): %d channels, %d dependencies", esc.Name(), v, e)},
			graph: escG, fn: esc,
		}
	}

	if sub, mask, subG := searchSubrelation(sp.Topo, fn); sub != nil {
		return deadlockProof{
			Proof: Proof{OK: true, Method: "subrelation",
				Detail: fmt.Sprintf("declared escape fails but the restriction to VCs %s is connected with an acyclic dependency graph (valid subrelation, Duato)", vcSetString(mask))},
			graph: subG, fn: sub,
		}
	}

	if sp.RecoveryTimeout > 0 {
		return deadlockProof{Proof: Proof{OK: true, Method: "recovery",
			Detail: fmt.Sprintf("dependency graph is cyclic; deadlocks are detected by the %d-cycle timeout and resolved by abort-and-retry (not a static proof — certification rests on the recovery mechanism)", sp.RecoveryTimeout)}}
	}

	cyc := escG.ShortestCycle()
	names := make([]string, len(cyc))
	for i, v := range cyc {
		names[i] = escG.VertexName(v, sp.Topo)
	}
	return deadlockProof{Proof: Proof{OK: false, Method: "cyclic",
		Detail:         fmt.Sprintf("escape subfunction %s has a dependency cycle and no valid VC subrelation exists; the configuration can deadlock", esc.Name()),
		Counterexample: names}}
}

// maxSubrelationVCs bounds the exhaustive VC-subset search: 2^8 subsets is
// instant, while functions with more VCs fall back to singleton and prefix
// masks (which cover every scheme shipped here anyway).
const maxSubrelationVCs = 8

// searchSubrelation looks for a connected VC-restricted subfunction with an
// acyclic CDG. Subsets are tried smallest-first so the reported subrelation
// is minimal. Each subset is walked once; returns the restricted function,
// its mask and its graph, or nil.
func searchSubrelation(topo topology.Topology, fn routing.Func) (routing.Func, uint32, *routing.CDG) {
	numVCs := fn.NumVCs()
	var masks []uint32
	if numVCs <= maxSubrelationVCs {
		for m := uint32(1); m < uint32(1)<<numVCs-1; m++ {
			masks = append(masks, m)
		}
	} else {
		for i := 0; i < numVCs; i++ {
			masks = append(masks, uint32(1)<<i)
		}
		for j := 2; j < numVCs; j++ {
			masks = append(masks, uint32(1)<<j-1)
		}
	}
	// Smallest subsets first; among equal sizes, lowest VCs first (escape
	// channels conventionally live at the bottom of the VC range).
	for i := 1; i < len(masks); i++ {
		for j := i; j > 0 && less(masks[j], masks[j-1]); j-- {
			masks[j], masks[j-1] = masks[j-1], masks[j]
		}
	}
	for _, m := range masks {
		sub := &vcSubset{inner: fn, mask: m,
			name: fmt.Sprintf("%s|vc%s", fn.Name(), vcSetString(m))}
		g := routing.BuildCDG(topo, sub)
		if proveDelivery(topo, sub, g).ok && g.FindCycle() == nil {
			return sub, m, g
		}
	}
	return nil, 0, nil
}

func less(a, b uint32) bool {
	if pa, pb := bits.OnesCount32(a), bits.OnesCount32(b); pa != pb {
		return pa < pb
	}
	return a < b
}

func vcSetString(mask uint32) string {
	s := "{"
	first := true
	for i := 0; i < 32; i++ {
		if mask&(1<<i) != 0 {
			if !first {
				s += ","
			}
			s += fmt.Sprint(i)
			first = false
		}
	}
	return s + "}"
}

// vcSubset restricts a routing function to a subset of its virtual
// channels — a candidate subrelation in Duato's sense. It is its own
// escape: the search only accepts it once its whole graph is acyclic.
type vcSubset struct {
	inner routing.Func
	mask  uint32
	name  string
}

// Name implements routing.Func.
func (r *vcSubset) Name() string { return r.name }

// NumVCs implements routing.Func (the vertex space stays the full one so
// graph indices line up with the parent function's).
func (r *vcSubset) NumVCs() int { return r.inner.NumVCs() }

// Escape implements routing.Func.
func (r *vcSubset) Escape() routing.Func { return r }

// Candidates implements routing.Func.
func (r *vcSubset) Candidates(here, dst topology.Node, inLink topology.LinkID, inVC int, out []Candidate) []Candidate {
	base := len(out)
	out = r.inner.Candidates(here, dst, inLink, inVC, out)
	kept := base
	for i := base; i < len(out); i++ {
		if r.mask&(1<<uint(out[i].VC)) != 0 {
			out[kept] = out[i]
			kept++
		}
	}
	return out[:kept]
}

// Candidate aliases routing.Candidate so vcSubset satisfies routing.Func.
type Candidate = routing.Candidate
