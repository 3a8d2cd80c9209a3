// Command benchmark (wavebench) is the repository's one benchmark: six
// fixed, seeded, sub-saturation workloads measured end to end (tracing off)
// and layer by layer (tracing on). See README.md.
//
//	go run -C benchmark . -workload NAME -seed N -seconds S -trace 0|1
//	go run -C benchmark . -suite results/prNN.json
//	go run -C benchmark . -compare a.json[:set] b.json[:set]
//	go run -C benchmark . -quick
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// processStart is taken as early as the Go runtime allows; a set-up child
// times "fresh process -> ready" from here.
var processStart = time.Now()

// coldSetups is the number of fresh-process set-ups behind one setup_s.
const coldSetups = 9

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (one of the six; see README)")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 12, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the sampled spans here as Chrome trace JSON")
	quick := fs.Bool("quick", false, "every workload at 1/50 scale in this process, both passes (smoke test)")
	suite := fs.String("suite", "", "run two full sets and one traced pass of every workload; write the results file here")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.json[:set] b.json[:set]")
	child := fs.Bool("setup-child", false, "internal: perform one cold set-up, print its timing, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two results files, got %d", fs.NArg()))
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	case *quick:
		if _, err := runQuick(stdout, *seed); err != nil {
			return fail(err)
		}
		return 0
	case *suite != "":
		if err := runSuite(stderr, *suite, *seed, *seconds); err != nil {
			return fail(err)
		}
		return 0
	}

	w := findWorkload(*name)
	if w == nil {
		names := make([]string, len(workloads))
		for i := range workloads {
			names[i] = workloads[i].name
		}
		return fail(fmt.Errorf("unknown -workload %q; want one of %v (or -suite, -compare, -quick)", *name, names))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *child {
		s, err := setupOnce(w, *seed, 1, *trace == 1, processStart)
		if err != nil {
			return fail(err)
		}
		return printJSON(stdout, s, fail)
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive, got %g", *seconds))
	}

	o := runOpts{w: w, seed: *seed, seconds: *seconds, scale: 1, setups: coldSetups, traceOut: *traceOut}
	var res *result
	var in *runInfo
	if *trace == 1 {
		res, in = runTraced(o)
	} else {
		res, in = runEndToEnd(o)
	}
	report(stderr, res, in)
	// The run's information first, the result as the last line.
	if code := printJSON(stdout, map[string]*runInfo{"info": in}, fail); code != 0 {
		return code
	}
	return printJSON(stdout, res, fail)
}

func printJSON(w io.Writer, v any, fail func(error) int) int {
	raw, err := json.Marshal(v)
	if err != nil {
		return fail(err)
	}
	if _, err := fmt.Fprintf(w, "%s\n", raw); err != nil {
		return fail(err)
	}
	return 0
}

// report prints a run for people: every metric by name with its unit.
func report(w io.Writer, res *result, in *runInfo) {
	pass := "end-to-end (tracing off)"
	if in.Trace == 1 {
		pass = "per-layer (tracing on)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  %d repetitions\n", in.Workload, in.Seed, pass, in.Reps)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  operations attempted %d, failed %d; correct %v\n", res.Attempted, res.Failed, res.Correct)
	if in.StatsDigest != "" {
		fmt.Fprintf(w, "  wave.Stats sha256 %s\n", in.StatsDigest)
	}
	if in.Trace == 0 {
		fmt.Fprintf(w, "  job time: highest percentile with >= 10 samples beyond it is p%g = %.6g ms (%d samples)\n",
			in.JobTailPercentile, in.JobTailMs, in.JobTailSamples)
	}
	if in.Noisy {
		fmt.Fprintf(w, "  NOISY: host calibration moved %.1f -> %.1f ns\n", in.CalibBeforeNs, in.CalibAfterNs)
	}
	if in.Error != "" {
		fmt.Fprintf(w, "  FAILED: %s\n", in.Error)
	}
}
