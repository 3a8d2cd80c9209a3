// Command waveexp regenerates the paper-shaped experiment tables E1-E21 (see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// results). Independent sweep points run in parallel across CPUs; results
// are deterministic regardless of scheduling.
//
// Examples:
//
//	waveexp                 # run everything at full scale
//	waveexp -exp e1,e3      # selected experiments
//	waveexp -quick          # reduced scale (4x4 torus, shorter runs)
//	waveexp -markdown       # table output fenced for EXPERIMENTS.md
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "waveexp:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("waveexp", flag.ContinueOnError)
	var (
		expList  = fs.String("exp", "all", "comma-separated experiment ids (e1..e21) or 'all'")
		quick    = fs.Bool("quick", false, "reduced scale for smoke runs")
		radix    = fs.Int("radix", 0, "override torus side (0 = default)")
		seed     = fs.Uint64("seed", 1, "base RNG seed")
		markdown = fs.Bool("markdown", false, "wrap tables in markdown code fences")
		headline = fs.Int("headline", 0, "instead of tables: replicate the E1 headline gain across N seeds and report mean +/- 95% CI")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := experiments.Defaults()
	if *quick {
		p = experiments.Quick()
	}
	p.Seed = *seed
	if *headline > 0 {
		return runHeadline(out, p, *headline)
	}
	if *radix > 0 {
		p.Radix = *radix
	}

	// Resolve every id before running anything, so a typo fails fast.
	ids := experiments.Sorted()
	want := map[string]bool{}
	all := *expList == "all"
	for _, id := range strings.Split(*expList, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if !all && !slices.Contains(ids, id) {
			return fmt.Errorf("unknown experiment %q (available: %s)", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}

	for _, e := range experiments.Registry() {
		if !all && !want[e.ID] {
			continue
		}
		start := time.Now()
		rep, err := e.Fn(context.Background(), p)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(out, "== %s: %s ==\n", rep.ID, rep.Title)
		if *markdown {
			fmt.Fprintln(out, "```")
		}
		fmt.Fprint(out, rep.Table.String())
		if *markdown {
			fmt.Fprintln(out, "```")
		}
		for _, n := range rep.Notes {
			fmt.Fprintln(out, "  .", n)
		}
		fmt.Fprintf(out, "  (%.1fs)\n\n", time.Since(start).Seconds())
	}
	return nil
}

// runHeadline replicates the paper's headline claim (wormhole/wave latency
// ratio, 256-flit messages, no reuse, k=1 full-width circuits) across seeds
// and reports the mean gain with a 95% confidence interval.
func runHeadline(out io.Writer, p experiments.Params, reps int) error {
	mean, ci, err := experiments.Headline(context.Background(), p, reps)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "headline (256-flit, no reuse, k=1, %dx%d torus): gain = %.2fx +/- %.2f (95%% CI, %d seeds)\n",
		p.Radix, p.Radix, mean, ci, reps)
	fmt.Fprintln(out, `paper claim: "a factor higher than three if messages are long enough (>= 128 flits), even if circuits are not reused"`)
	if mean-ci > 3 {
		fmt.Fprintln(out, "verdict: claim REPRODUCED with statistical confidence")
	} else {
		fmt.Fprintln(out, "verdict: claim NOT confirmed at this scale")
	}
	return nil
}
