// Command wavetrace plays the CARP compiler: it generates circuit directive
// programs for classic message-passing kernels, ready for `wavesim -trace`.
//
// Examples:
//
//	wavetrace -kernel stencil -radix 8x8 -iters 10 -flits 96 > stencil.carp
//	wavetrace -kernel ring -radix 4x4 -rounds 8 -flits 64 > ring.carp
//	wavetrace -kernel alltoall -radix 4x4 -flits 32 > a2a.carp
//	wavesim -protocol carp -trace stencil.carp
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/topology"
	"repro/internal/trace"
	"repro/wave"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wavetrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wavetrace", flag.ContinueOnError)
	var (
		kernel = fs.String("kernel", "stencil", "kernel: stencil, ring, alltoall")
		radix  = fs.String("radix", "8x8", "torus shape, e.g. 8x8")
		iters  = fs.Int("iters", 10, "stencil iterations")
		rounds = fs.Int("rounds", 8, "ring rounds")
		flits  = fs.Int("flits", 96, "message length in flits")
		gap    = fs.Int64("gap", 400, "cycles between iterations/rounds/stages")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tc, err := wave.ParseTopology("torus", *radix, 0)
	if err != nil {
		return err
	}
	built, err := tc.Build()
	if err != nil {
		return err
	}
	topo := built.(topology.Geometry) // a torus has coordinates

	var prog trace.Program
	switch *kernel {
	case "stencil":
		neighbors := func(n int) []int {
			var out []int
			for dim := 0; dim < topo.Dims(); dim++ {
				for _, dir := range []topology.Dir{topology.Plus, topology.Minus} {
					if nb, ok := topo.Neighbor(topology.Node(n), dim, dir); ok {
						out = append(out, int(nb))
					}
				}
			}
			return out
		}
		prog, err = trace.Stencil(topo.Nodes(), neighbors, *iters, *flits, *gap)
	case "ring":
		prog, err = trace.Ring(topo.Nodes(), *rounds, *flits, *gap)
	case "alltoall":
		prog, err = trace.AllToAll(topo.Nodes(), *flits, *gap)
	default:
		return fmt.Errorf("unknown kernel %q (want stencil, ring or alltoall)", *kernel)
	}
	if err != nil {
		return err
	}
	if err := prog.Validate(topo.Nodes()); err != nil {
		return err
	}
	fmt.Fprintf(out, "# %s on %s: %d directives\n", *kernel, topo.Name(), len(prog))
	return trace.Encode(out, prog)
}
