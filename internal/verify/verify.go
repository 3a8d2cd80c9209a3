// Package verify is the static deadlock/livelock prover: it mechanically
// certifies Theorems 1-4 of the paper for any (topology, routing function,
// protocol, VCs, k, w, fault set) configuration before a single cycle is
// simulated.
//
// The proof structure follows the paper's own arguments, made executable:
//
//   - Deadlock freedom of the wormhole substrate (the skeleton of Theorems
//     1-2) is one theorem over the channel dependency graph of
//     internal/routing: a subfunction that is offered at every state the
//     function reaches, offers a candidate there, and has acyclic
//     dependencies there. It holds directly when the full function's CDG
//     is acyclic (Dally & Seitz), or through the declared escape
//     subfunction (Duato's condition, checked at the function's reachable
//     states as Verbeek and Schmaltz state it). Failed proofs carry a
//     minimal counterexample cycle or the state where the escape fails.
//
//   - Livelock freedom (Theorems 3-4) is a per-routing-function delivery
//     proof: every reachable state offers a candidate, every candidate names
//     a link that exists, and either every reachable candidate hop strictly
//     decreases the distance to the destination (monotone progress — all
//     shipped functions), or the per-destination routing-state graph is
//     acyclic (bounded-path). Probe misroutes are bounded by MB-m, setup
//     retries by ProbeRetryLimit, and the terminal fallback is the wormhole
//     substrate whose delivery the same proof covers.
//
//   - The routing function's reachable (channel, destination) state space
//     is walked once per certification: routing.BuildCDG builds the
//     dependency graph and records on it the delivery facts (routing.CDG's
//     Delivery) and the escape's candidates at every state (its Escape),
//     and Certify hands that one graph to the deadlock and livelock
//     proofs. The escape's own state space is never walked. Only a
//     non-monotone function pays a second search, for state cycles. Every
//     cycle check — the CDG, the extended wait-for graph, the state graph —
//     runs routing.FindCycle.
//
//   - The protocol layer (what the plain CDG cannot see) is an extended
//     wait-for graph: circuit-cache occupancy (messages blocked on a
//     Setting entry), the setup sequence with its probe reservations and
//     Force-phase waits on established circuits, and the CLRP phase-3 /
//     CARP / PCS wormhole-fallback edges splicing into the proven-acyclic
//     wormhole dependency graph. The graph is checked for cycles as a
//     whole, so any future edge from the wormhole layer back into the wave
//     layer is caught mechanically.
//
//   - Fault-aware re-proof: the extended graph is rebuilt with every
//     permanent wave-channel fault removed and re-checked, so a faulted
//     topology is certified before a job runs. Faults in this simulator
//     target wave channels only; the wormhole substrate is structurally
//     unaffected (the paper: the two switching techniques "use their own
//     set of resources").
package verify

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/flit"
	"repro/internal/pcs"
	"repro/internal/protocol"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Spec is one configuration to certify.
type Spec struct {
	// Topo is the network topology.
	Topo topology.Topology
	// Routing names the wormhole routing function (see routing.Names).
	Routing string
	// NumVCs is w, the wormhole virtual channels per physical channel.
	NumVCs int
	// Protocol is the message protocol riding the fabric.
	Protocol protocol.Kind
	// NumSwitches is k, the wave-pipelined switches per router.
	NumSwitches int
	// MaxMisroutes is m in the MB-m probe protocol.
	MaxMisroutes int
	// ProbeRetryLimit bounds setup-sequence re-arms (0 = single sequence).
	ProbeRetryLimit int
	// RecoveryTimeout > 0 arms the wormhole abort-and-retry recovery; it is
	// the only way a cyclic routing function (dor-nodateline) certifies.
	RecoveryTimeout int64
	// Faults lists permanently failed wave channels (static plans plus the
	// non-repairing events of a fault.Schedule); the residual configuration
	// is re-proven with them removed.
	Faults []pcs.Channel
}

// Key identifies the verdict Certify(sp) returns: a digest of exactly the
// fields Certify reads. The topology enters as Name() and Nodes(), the
// routing.BuildCDGCached pattern (identically shaped topologies share one
// node and link numbering), and Faults in the order given. Specs with equal
// keys get equal certificates, so a caller may keep one verdict per key.
func (sp Spec) Key() string {
	h := sha256.New()
	var topoName string
	var nodes int
	if sp.Topo != nil {
		topoName, nodes = sp.Topo.Name(), sp.Topo.Nodes()
	}
	fmt.Fprintf(h, "%q %d %q %d %q %d %d %d %d faults",
		topoName, nodes, sp.Routing, sp.NumVCs, sp.Protocol, sp.NumSwitches,
		sp.MaxMisroutes, sp.ProbeRetryLimit, sp.RecoveryTimeout)
	for _, ch := range sp.Faults {
		fmt.Fprintf(h, " %d:%d", ch.Link, ch.Switch)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Proof is one verdict with its method and, on failure, a counterexample.
type Proof struct {
	OK     bool   `json:"ok"`
	Method string `json:"method"`
	Detail string `json:"detail,omitempty"`
	// Counterexample renders a dependency cycle (first == last) or a stuck
	// routing state when the proof fails.
	Counterexample []string `json:"counterexample,omitempty"`
}

// Obligation is a structural side condition the graph proofs rest on —
// checked mechanically where a parameter is involved, recorded with its
// justification where it is an invariant of the implementation (and covered
// by that package's own tests).
type Obligation struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Certificate is the full verdict for one Spec.
type Certificate struct {
	Topology    string `json:"topology"`
	Routing     string `json:"routing"`
	Escape      string `json:"escape"`
	NumVCs      int    `json:"num_vcs"`
	Protocol    string `json:"protocol"`
	NumSwitches int    `json:"num_switches"`
	NumFaults   int    `json:"num_faults,omitempty"`

	// Certified is the conjunction of every proof and obligation below.
	Certified bool `json:"certified"`

	// Deadlock is the wormhole-substrate proof (Theorems 1-2 skeleton).
	Deadlock Proof `json:"deadlock"`
	// Livelock is the delivery proof (Theorems 3-4).
	Livelock Proof `json:"livelock"`
	// WaitFor is the extended protocol-level wait-for graph proof.
	WaitFor Proof `json:"wait_for"`
	// Residual re-proves the configuration with permanent faults removed;
	// nil when the spec carries no faults.
	Residual *Proof `json:"residual,omitempty"`

	Obligations []Obligation `json:"obligations"`
}

// Failure summarises why certification failed, for error messages.
func (c *Certificate) Failure() string {
	fail := func(kind string, p Proof) string {
		s := fmt.Sprintf("%s proof failed (%s)", kind, p.Method)
		if p.Detail != "" {
			s += ": " + p.Detail
		}
		if len(p.Counterexample) > 0 {
			s += fmt.Sprintf("; counterexample %v", p.Counterexample)
		}
		return s
	}
	switch {
	case !c.Deadlock.OK:
		return fail("deadlock", c.Deadlock)
	case !c.Livelock.OK:
		return fail("livelock", c.Livelock)
	case !c.WaitFor.OK:
		return fail("wait-for", c.WaitFor)
	case c.Residual != nil && !c.Residual.OK:
		return fail("residual", *c.Residual)
	}
	for _, ob := range c.Obligations {
		if !ob.OK {
			return fmt.Sprintf("obligation %s violated: %s", ob.Name, ob.Detail)
		}
	}
	if !c.Certified {
		return "not certified"
	}
	return ""
}

// Certify proves the configuration or produces a counterexample. An error
// means the spec itself is malformed (unknown routing function, VC count
// below the function's minimum, fault channels that do not exist on the
// topology); verdicts about well-formed configurations go in the
// Certificate.
func Certify(sp Spec) (*Certificate, error) {
	if sp.Topo == nil {
		return nil, fmt.Errorf("verify: nil topology")
	}
	kind, err := protocol.ParseKind(string(sp.Protocol))
	if err != nil {
		return nil, err
	}
	fn, err := routing.New(sp.Routing, sp.Topo, sp.NumVCs)
	if err != nil {
		return nil, err
	}
	if err := validateFaults(sp); err != nil {
		return nil, err
	}

	cert := &Certificate{
		Topology:    sp.Topo.Name(),
		Routing:     fn.Name(),
		Escape:      fn.Escape().Name(),
		NumVCs:      sp.NumVCs,
		Protocol:    string(kind),
		NumSwitches: sp.NumSwitches,
		NumFaults:   len(sp.Faults),
	}

	cert.Obligations = obligations(sp, kind)
	g := routing.BuildCDGCached(sp.Topo, fn)
	dl := proveDeadlock(sp, fn, g)
	cert.Deadlock = dl.Proof
	cert.Livelock = proveLivelock(sp, kind, fn, g)
	cert.WaitFor = proveWaitFor(sp, kind, dl, nil)
	if len(sp.Faults) > 0 {
		res := proveResidual(sp, kind, dl)
		cert.Residual = &res
	}

	cert.Certified = cert.Deadlock.OK && cert.Livelock.OK && cert.WaitFor.OK &&
		(cert.Residual == nil || cert.Residual.OK)
	for _, ob := range cert.Obligations {
		cert.Certified = cert.Certified && ob.OK
	}
	return cert, nil
}

// validateFaults rejects fault channels that do not exist on the topology.
func validateFaults(sp Spec) error {
	for _, ch := range sp.Faults {
		if _, ok := sp.Topo.LinkByID(ch.Link); !ok {
			return fmt.Errorf("verify: fault channel names missing link %d", ch.Link)
		}
		if ch.Switch < 0 || ch.Switch >= sp.NumSwitches {
			return fmt.Errorf("verify: fault channel switch %d out of range (k=%d)",
				ch.Switch, sp.NumSwitches)
		}
	}
	return nil
}

// obligations records the structural side conditions. The graph proofs
// establish that the wait-for relation is acyclic GIVEN that every resource
// class on the wave side is released in bounded time without waiting on
// another message; these are the facts that discharge that premise.
func obligations(sp Spec, kind protocol.Kind) []Obligation {
	if kind == protocol.Wormhole {
		return []Obligation{{
			Name: "wormhole-only", OK: true,
			Detail: "no wave resources in use; the CDG proof is the whole argument",
		}}
	}
	obs := []Obligation{
		{
			Name: "wave-switches",
			OK:   sp.NumSwitches >= 1,
			Detail: fmt.Sprintf("circuit protocols need k >= 1 wave switches, got %d",
				sp.NumSwitches),
		},
		{
			Name: "mb-m-bound",
			OK:   sp.MaxMisroutes >= 0 && sp.MaxMisroutes <= flit.MaxMisroutes,
			Detail: fmt.Sprintf("probe misroutes bounded: m=%d in [0,%d]",
				sp.MaxMisroutes, flit.MaxMisroutes),
		},
		{
			Name: "probe-termination", OK: true,
			Detail: "MB-m probes never block: an unprofitable or busy channel is " +
				"misrouted around (budget m) or backtracked from (history store " +
				"prevents revisits), so every probe succeeds or fails in bounded " +
				"time and reserved channels are always released (internal/pcs " +
				"invariants tests)",
		},
		{
			Name: "control-network", OK: true,
			Detail: "acks, teardowns and release requests move one hop per cycle " +
				"on dedicated single-flit control channels and never contend with " +
				"data (paper section 2; internal/pcs)",
		},
		{
			Name: "release-races", OK: true,
			Detail: "Force-phase release requests are idempotent: the first wins, " +
				"duplicates and stale requests are discarded (Theorem 1 race rules, " +
				"internal/pcs engine tests)",
		},
		{
			Name: "retry-bound",
			OK:   sp.ProbeRetryLimit >= 0,
			Detail: fmt.Sprintf("setup sequences re-arm at most %d times, then "+
				"degrade to the wormhole fallback", sp.ProbeRetryLimit),
		},
	}
	return obs
}
