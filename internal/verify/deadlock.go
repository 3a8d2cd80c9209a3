package verify

import (
	"fmt"

	"repro/internal/routing"
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

// proveDeadlock establishes deadlock freedom of the wormhole substrate from
// g, fn's graph, whose single walk also recorded fn's declared escape R1 at
// every state fn reaches. The theorem is one: a subfunction R1 of fn that
// offers a candidate at every undelivered state fn reaches and has acyclic
// direct dependencies there makes fn deadlock-free (Duato's condition over
// R's reachable states, as Verbeek and Schmaltz state it). In order of
// argument strength:
//
//  1. "acyclic-cdg": R1 = fn — the full function's dependency graph is
//     acyclic (Dally & Seitz), no escape reasoning needed.
//  2. "escape": the declared escape is offered by fn, offers a candidate at
//     every state fn reaches, and its dependency graph there is acyclic.
//  3. "recovery": the graph is cyclic but abort-and-retry recovery is armed
//     (RecoveryTimeout > 0); deadlocks are resolved dynamically (E16).
//
// Anything else is rejected with a counterexample: a minimal cycle of the
// escape's graph (method "cyclic"), or the state where the escape offers
// nothing or offers a channel fn does not (method "escape", failed).
func proveDeadlock(sp Spec, fn routing.Func, g *routing.CDG) deadlockProof {
	if g.FindCycle() == nil {
		v, e, _ := g.Stats()
		return deadlockProof{
			Proof: Proof{OK: true, Method: "acyclic-cdg",
				Detail: fmt.Sprintf("full dependency graph acyclic (Dally-Seitz): %d channels, %d dependencies", v, e)},
			graph: g, fn: fn,
		}
	}

	esc := fn.Escape()
	r1 := g.Escape()
	cyclic := esc == fn || r1.Graph.FindCycle() != nil
	if !cyclic && r1.Stuck == "" && r1.Extra == "" {
		v, e, _ := r1.Graph.Stats()
		return deadlockProof{
			Proof: Proof{OK: true, Method: "escape",
				Detail: fmt.Sprintf("escape subfunction %s connected with acyclic dependency graph (Duato): %d channels, %d dependencies", esc.Name(), v, e)},
			graph: r1.Graph, fn: esc,
		}
	}

	if sp.RecoveryTimeout > 0 {
		return deadlockProof{Proof: Proof{OK: true, Method: "recovery",
			Detail: fmt.Sprintf("dependency graph is cyclic; deadlocks are detected by the %d-cycle timeout and resolved by abort-and-retry (not a static proof — certification rests on the recovery mechanism)", sp.RecoveryTimeout)}}
	}

	p := Proof{OK: false, Method: "escape"}
	switch {
	case cyclic:
		p.Method = "cyclic"
		cyc := r1.Graph.ShortestCycle()
		p.Counterexample = make([]string, len(cyc))
		for i, v := range cyc {
			p.Counterexample[i] = r1.Graph.VertexName(v, sp.Topo)
		}
		p.Detail = fmt.Sprintf("escape subfunction %s has a dependency cycle; the configuration can deadlock", esc.Name())
	case r1.Stuck != "":
		p.Counterexample = []string{r1.Stuck}
		p.Detail = fmt.Sprintf("escape subfunction %s is not connected: it offers nothing at a state %s reaches; the configuration can deadlock", esc.Name(), fn.Name())
	default:
		p.Counterexample = []string{r1.Extra}
		p.Detail = fmt.Sprintf("escape subfunction %s is not a subfunction of %s; the configuration can deadlock", esc.Name(), fn.Name())
	}
	return deadlockProof{Proof: p}
}
