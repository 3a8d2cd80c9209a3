// Command cdgcheck statically certifies a full wave-switching configuration
// before it runs: the wormhole substrate's channel dependency graph (Dally &
// Seitz, or Duato's condition on the declared escape, checked at every
// state the routing function reaches; the ladder is acyclic-cdg, escape,
// recovery, reject), the delivery / livelock proof, the protocol-level
// extended wait-for graph, and — when faults are given — the residual
// re-proof. It is a thin CLI over
// internal/verify; waved's POST /v1/verify endpoint runs the same prover.
//
// Exit codes: 0 the configuration is certified, 1 a proof failed (the
// counterexample is printed), 2 the invocation itself is malformed (unknown
// flag, bad radix, unknown routing function, VC count below the function's
// minimum, a -faults pair that is not link:switch or names a channel twice).
//
// Examples:
//
//	cdgcheck -topology torus -radix 8x8 -routing duato -vcs 3 -protocol clrp
//	cdgcheck -topology hypercube -dims 6 -routing all -vcs 2
//	cdgcheck -topology torus -radix 4x4 -routing dor-nodateline -vcs 1 -json
//	cdgcheck -topology fattree -radix 4 -dims 2 -routing updown -vcs 1
//	cdgcheck -topology fullmesh -radix 8 -routing vcfree -vcs 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/pcs"
	"repro/internal/protocol"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/verify"
	"repro/wave"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errNotCertified(err):
		fmt.Fprintln(os.Stderr, "cdgcheck:", err)
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "cdgcheck:", err)
		os.Exit(2)
	}
}

// notCertified marks proof failures (exit 1) as opposed to usage errors
// (exit 2).
type notCertified struct{ msg string }

func (e notCertified) Error() string { return e.msg }

func errNotCertified(err error) bool {
	_, ok := err.(notCertified)
	return ok
}

// cliFlags are the parsed command-line values.
type cliFlags struct {
	topoKind, radix, fnName, proto, faults *string
	dims, vcs, switches, misroute, retries *int
	recovery                               *int64
	jsonOut                                *bool
}

// newFlags declares the command line. Every flag a simulation run shares
// takes its default from wave.DefaultConfig, so a bare cdgcheck certifies
// the configuration a bare wavesim or waved job runs.
func newFlags() (*flag.FlagSet, cliFlags) {
	def := wave.DefaultConfig()
	radix := make([]string, len(def.Topology.Radix))
	for i, r := range def.Topology.Radix {
		radix[i] = strconv.Itoa(r)
	}
	fs := flag.NewFlagSet("cdgcheck", flag.ContinueOnError)
	return fs, cliFlags{
		topoKind: fs.String("topology", def.Topology.Kind, "mesh, torus, hypercube, fattree or fullmesh"),
		radix:    fs.String("radix", strings.Join(radix, "x"), "nodes per dimension for mesh/torus (e.g. 8x8); arity k for fattree; node count for fullmesh"),
		dims:     fs.Int("dims", 6, "dimensions for -topology hypercube; levels n for fattree"),
		fnName:   fs.String("routing", def.Routing, "routing function ("+strings.Join(routing.Names(), ", ")+") or 'all'"),
		vcs:      fs.Int("vcs", def.NumVCs, "virtual channels per physical channel"),
		proto:    fs.String("protocol", def.Protocol, "protocol: wormhole, clrp, carp or pcs"),
		switches: fs.Int("switches", def.NumSwitches, "wave-pipelined switches per router (k)"),
		misroute: fs.Int("misroutes", def.MaxMisroutes, "MB-m probe misroute budget"),
		retries:  fs.Int("retries", def.ProbeRetryLimit, "setup-sequence retry limit"),
		recovery: fs.Int64("recovery", def.RecoveryTimeout, "abort-and-retry recovery timeout in cycles (0 = off)"),
		faults:   fs.String("faults", "", "permanent wave faults as link:switch pairs, e.g. 12:0,12:1"),
		jsonOut:  fs.Bool("json", false, "emit the certificate as JSON"),
	}
}

func run(args []string, out io.Writer) error {
	fs, f := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}

	tc, err := wave.ParseTopology(*f.topoKind, *f.radix, *f.dims)
	if err != nil {
		return err
	}
	topo, err := tc.Build()
	if err != nil {
		return err
	}
	faultSet, err := parseFaults(*f.faults)
	if err != nil {
		return err
	}

	names := []string{*f.fnName}
	if *f.fnName == "all" {
		names = routing.Names()
	}

	failed := 0
	for _, name := range names {
		sp := verify.Spec{
			Topo: topo, Routing: name, NumVCs: *f.vcs,
			Protocol: protocol.Kind(*f.proto), NumSwitches: *f.switches,
			MaxMisroutes: *f.misroute, ProbeRetryLimit: *f.retries,
			RecoveryTimeout: *f.recovery, Faults: faultSet,
		}
		cert, err := verify.Certify(sp)
		if err != nil {
			if *f.fnName == "all" {
				// Sweeping all functions: one whose VC minimum exceeds -vcs
				// is skipped, not a usage error.
				fmt.Fprintf(out, "%s: skipped (%v)\n", name, err)
				continue
			}
			return err
		}
		if *f.jsonOut {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(cert); err != nil {
				return err
			}
		} else {
			printCert(out, cert)
		}
		if !cert.Certified {
			failed++
		}
	}
	if failed > 0 {
		return notCertified{fmt.Sprintf("%d configuration(s) failed certification", failed)}
	}
	return nil
}

// parseFaults parses "link:switch,link:switch,..." into wave channels. Each
// pair must be exactly two decimal integers, and no channel may be named
// twice.
func parseFaults(s string) ([]pcs.Channel, error) {
	if s == "" {
		return nil, nil
	}
	var out []pcs.Channel
	for _, part := range strings.Split(s, ",") {
		ls, ws, ok := strings.Cut(part, ":")
		link, err1 := strconv.Atoi(ls)
		sw, err2 := strconv.Atoi(ws)
		if !ok || err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad fault %q (want link:switch)", part)
		}
		ch := pcs.Channel{Link: topology.LinkID(link), Switch: sw}
		if slices.Contains(out, ch) {
			return nil, fmt.Errorf("fault %q named twice", part)
		}
		out = append(out, ch)
	}
	return out, nil
}

// printCert renders a certificate for humans.
func printCert(out io.Writer, c *verify.Certificate) {
	fmt.Fprintf(out, "topology: %s\nrouting:  %s with %d VCs (escape subfunction: %s)\nprotocol: %s, k=%d wave switches",
		c.Topology, c.Routing, c.NumVCs, c.Escape, c.Protocol, c.NumSwitches)
	if c.NumFaults > 0 {
		fmt.Fprintf(out, ", %d permanent faults", c.NumFaults)
	}
	fmt.Fprintln(out)

	proof := func(kind string, p verify.Proof) {
		verdict := "OK"
		if !p.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(out, "%-9s %s [%s] %s\n", kind+":", verdict, p.Method, p.Detail)
		for _, line := range p.Counterexample {
			fmt.Fprintf(out, "    %s\n", line)
		}
	}
	proof("deadlock", c.Deadlock)
	proof("livelock", c.Livelock)
	proof("wait-for", c.WaitFor)
	if c.Residual != nil {
		proof("residual", *c.Residual)
	}
	for _, ob := range c.Obligations {
		if !ob.OK {
			fmt.Fprintf(out, "obligation %s: VIOLATED — %s\n", ob.Name, ob.Detail)
		}
	}
	if c.Certified {
		fmt.Fprintln(out, "VERDICT: CERTIFIED — deadlock- and livelock-free")
	} else {
		fmt.Fprintln(out, "VERDICT: NOT CERTIFIED — the configuration can deadlock or livelock")
	}
}
